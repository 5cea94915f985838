import argparse
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from spiked_tensor.cli import build_parser, main

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results"


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    return header, rows


def test_thresholds_rademacher_d2_exact(capsys):
    code, out = run_cli(["thresholds", "--prior", "rademacher", "--d", "2"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["d", "lambda_lower", "lambda_upper", "mu_d"]
    assert rows[0]["d"] == "2"
    assert float(rows[0]["lambda_lower"]) == 1.0
    assert float(rows[0]["lambda_upper"]) == 1.0
    assert rows[0]["mu_d"] == "NaN"


def test_thresholds_spherical_ordering(capsys):
    code, out = run_cli(["thresholds", "--prior", "spherical", "--d", "3..10"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 8
    for row in rows:
        lo, hi, mu = (float(row[k]) for k in ("lambda_lower", "lambda_upper", "mu_d"))
        assert lo < hi < mu
    assert [int(r["d"]) for r in rows] == list(range(3, 11))


def test_thresholds_sparse_figure2_point(capsys):
    code, out = run_cli(
        ["thresholds", "--prior", "sparse", "--rho", "0.1", "--d", "2"], capsys
    )
    assert code == 0
    _, rows = parse_csv(out)
    lo = float(rows[0]["lambda_lower"])
    hi = float(rows[0]["lambda_upper"])
    assert 0.9 < lo < 1.0 < hi < 1.3


def test_ratefn_first_row_zero(capsys):
    code, out = run_cli(["ratefn", "--prior", "rademacher", "--grid", "5"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 5
    assert float(rows[0]["t"]) == 0.0
    assert float(rows[0]["rate"]) == 0.0


def test_ratefn_sparse_limit(capsys):
    code, out = run_cli(
        ["ratefn", "--prior", "sparse", "--rho", "0.3", "--grid", "100"], capsys
    )
    assert code == 0
    _, rows = parse_csv(out)
    h = -0.3 * math.log(0.3) - 0.7 * math.log(0.7)
    assert float(rows[-1]["rate"]) == pytest.approx(h + 0.3 * math.log(2), abs=1e-8)


def test_ratefn_spherical_monotone(capsys):
    code, out = run_cli(
        ["ratefn", "--prior", "spherical", "--grid", "100", "--tmax", "0.999"], capsys
    )
    assert code == 0
    _, rows = parse_csv(out)
    vals = [float(r["rate"]) for r in rows]
    assert all(b > a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("prior", [["spherical"], ["rademacher"], ["sparse", "--rho", "0.3"]])
def test_ratefn_rate_column_matches_scalar_eval(prior, capsys):
    # the column is one batch evaluation; each row must equal the scalar rate
    from spiked_tensor import SpikePrior, rate_function_for

    code, out = run_cli(["ratefn", "--prior", *prior, "--grid", "7", "--precision", "17"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    spike = SpikePrior.sparse(0.3) if prior[0] == "sparse" else getattr(SpikePrior, prior[0])()
    rate = rate_function_for(spike)
    for row in rows:
        assert float(row["rate"]) == rate.eval(float(row["t"]))


def test_ratefn_exact_tail_columns(capsys):
    code, out = run_cli(
        ["ratefn", "--prior", "rademacher", "--grid", "6", "--n", "32"], capsys
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["t", "rate", "exact_tail", "exact_rate"]
    assert float(rows[0]["exact_tail"]) >= 0.5


def test_replica_d2_appearance(capsys):
    code, out = run_cli(
        ["replica", "--prior", "rademacher", "--d", "2", "--thresholds"], capsys
    )
    assert code == 0
    _, rows = parse_csv(out)
    # a continuous transition at the spectral threshold: both are exactly 1
    assert float(rows[0]["lambda1"]) == float(rows[0]["lambda2"]) == 1.0


def test_replica_spherical_thresholds_match_results_table(capsys):
    code, out = run_cli(["replica", "--prior", "spherical", "--d", "3..5", "--thresholds"], capsys)
    assert code == 0
    committed = (RESULTS / "replica_thresholds_spherical.csv").read_text().splitlines()
    assert committed[0] == "d,lambda1,lambda2"
    assert out.splitlines() == committed[:4]


def test_replica_branch_table_residuals(capsys):
    code, out = run_cli(
        ["replica", "--prior", "spherical", "--d", "3", "--lambda", "3.0"], capsys
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["lambda", "branch", "q", "mu", "free_energy", "residual"]
    assert {r["branch"] for r in rows} == {"zero", "low", "high"}
    assert all(float(r["residual"]) < 1e-9 for r in rows)


def test_simulate_detect_summary(capsys):
    code, out = run_cli(
        [
            "simulate", "detect", "--prior", "rademacher", "--n", "10", "--d", "3",
            "--lambda", "4", "--trials", "50", "--seed", "7",
        ],
        capsys,
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert float(rows[0]["accuracy"]) >= 0.9
    assert float(rows[0]["epsilon"]) == 0.2 * 4


def test_simulate_detect_injective_has_no_epsilon(capsys):
    # the injective test thresholds at the midpoint of the arms' means
    code, out = run_cli(
        [
            "simulate", "detect", "--prior", "spherical", "--test", "injective_norm", "--n", "6",
            "--d", "3", "--lambda", "3", "--trials", "2", "--epsilon", "0.5",
        ],
        capsys,
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0]["epsilon"] == "NaN"


def test_simulate_bbp_smoke(capsys):
    code, out = run_cli(
        ["simulate", "bbp", "--n", "300", "--lambda", "2", "--trials", "5", "--seed", "7"],
        capsys,
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert float(rows[0]["mean_top_eigenvalue"]) == pytest.approx(2.5, abs=0.25)


def test_simulate_bbp_is_the_d2_spherical_recover_run(tmp_path, capsys):
    # at d = 2 the injective norm is the top eigenvalue and overlap^d the squared alignment
    common = ["--n", "80", "--lambda", "1.7", "--trials", "4", "--seed", "3", "--precision", "17"]
    code, out = run_cli(["simulate", "bbp", *common], capsys)
    assert code == 0
    _, (bbp,) = parse_csv(out)
    records = tmp_path / "records.csv"
    code, out = run_cli(["simulate", "recover", "--prior", "spherical", "--d", "2",
                         "--test", "injective_norm", *common, "--records", str(records)], capsys)
    assert code == 0
    _, (recover,) = parse_csv(out)
    _, trials = parse_csv(records.read_text())
    assert bbp["mean_alignment_sq"] == recover["mean_overlap_pow_d"]
    mean = float(np.mean([float(r["statistic"]) for r in trials]))
    assert bbp["mean_top_eigenvalue"] == format(mean, ".17g")


def test_simulate_records_file(tmp_path, capsys):
    records = tmp_path / "records.csv"
    code, _ = run_cli(
        [
            "simulate", "detect", "--prior", "rademacher", "--n", "8", "--d", "3",
            "--lambda", "2", "--trials", "4", "--seed", "1", "--records", str(records),
        ],
        capsys,
    )
    assert code == 0
    header, rows = parse_csv(records.read_text())
    assert header == ["trial", "arm", "statistic", "decision", "overlap"]
    assert len(rows) == 8
    assert rows[0]["arm"] == "spiked"
    assert rows[1]["overlap"] == "NaN"


def test_simulate_support_cap_error(capsys):
    code = main(
        ["simulate", "detect", "--prior", "rademacher", "--n", "30", "--d", "3",
         "--lambda", "1", "--trials", "2"]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert "cap" in err


def test_json_output_schema(capsys):
    code, out = run_cli(
        ["thresholds", "--prior", "rademacher", "--d", "2", "--format", "json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == "1"
    assert doc["rows"][0]["mu_d"] == "NaN"
    assert doc["rows"][0]["lambda_lower"] == 1.0


def test_csv_round_trip_precision(capsys):
    from spiked_tensor import SpikePrior, threshold_report

    code, out = run_cli(["thresholds", "--prior", "spherical", "--d", "3"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    rep = threshold_report(SpikePrior.spherical(), 3)
    assert float(rows[0]["lambda_lower"]) == pytest.approx(rep.lambda_lower, rel=1e-8)
    assert float(rows[0]["mu_d"]) == pytest.approx(rep.mu_d, rel=1e-8)


def test_out_flag_writes_file(tmp_path, capsys):
    path = tmp_path / "table.csv"
    code, out = run_cli(
        ["ratefn", "--prior", "rademacher", "--grid", "3", "--out", str(path)], capsys
    )
    assert code == 0
    assert out == ""
    assert path.read_text().startswith("t,rate")
    # a path that is neither a file nor a directory skips the probe and is written
    code, out = run_cli(["ratefn", "--prior", "rademacher", "--grid", "3", "--out", "/dev/null"],
                        capsys)
    assert code == 0
    assert out == ""


def test_help_exits_zero(capsys):
    for args in (
        ["--help"],
        ["thresholds", "--help"],
        ["ratefn", "--help"],
        ["replica", "--help"],
        ["simulate", "--help"],
        *(["simulate", kind, "--help"] for kind in ("detect", "recover", "tails", "norms", "bbp")),
    ):
        assert main(args) == 0
        capsys.readouterr()


def test_simulate_help_describes_each_kind(capsys):
    assert main(["simulate", "--help"]) == 0
    lines = capsys.readouterr().out.splitlines()
    for kind in ("detect", "recover", "tails", "norms", "bbp"):
        assert any(line.split()[:1] == [kind] and len(line.split()) > 1 for line in lines), kind


def test_unknown_flag_exits_nonzero(capsys):
    assert main(["thresholds", "--prior", "rademacher", "--d", "2", "--bogus"]) != 0
    capsys.readouterr()


def test_sparse_requires_rho(capsys):
    assert main(["thresholds", "--prior", "sparse", "--d", "2"]) == 2
    capsys.readouterr()


def test_thresholds_rademacher_top_of_d_range(capsys):
    # the largest order the CLI accepts; the lower bound sits at its t -> 1 limit
    code, out = run_cli(["thresholds", "--prior", "rademacher", "--d", "1000000"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert float(rows[0]["lambda_lower"]) <= float(rows[0]["lambda_upper"])


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "tails", "--prior", "rademacher", "--n", "10", "--trials", "5",
         "--tgrid", "1.5"],
        # past the exact oracle's n <= 200 the t grid is still checked
        ["simulate", "tails", "--prior", "rademacher", "--n", "300", "--trials", "100",
         "--tgrid", "1.5"],
        ["simulate", "tails", "--prior", "spherical", "--n", "10", "--trials", "5",
         "--tgrid", "0.5,1"],
        ["ratefn", "--prior", "rademacher", "--tmax", "1.5"],
        # past d ~ 10^4 the root scan's 4000-point grid cannot resolve the high branch
        ["thresholds", "--prior", "spherical", "--d", "30000", "--replica"],
        ["simulate", "detect", "--prior", "rademacher", "--n", "8", "--trials", "4",
         "--lambda", "nan"],
        ["simulate", "detect", "--prior", "rademacher", "--n", "8", "--trials", "4",
         "--lambda", "1", "--epsilon", "inf"],
        ["simulate", "norms", "--prior", "spherical", "--n", "5", "--trials", "1",
         "--restarts", "0"],
        ["simulate", "norms", "--prior", "spherical", "--n", "5", "--trials", "1",
         "--restarts", "-1"],
        ["ratefn", "--prior", "rademacher", "--n", "-1", "--grid", "3"],
        ["ratefn", "--prior", "rademacher", "--n", "0"],
        ["simulate", "tails", "--prior", "rademacher", "--n", "0"],
        ["simulate", "tails", "--prior", "rademacher", "--n", "10", "--trials", "0"],
        ["simulate", "bbp", "--n", "20", "--lambda", "2", "--trials", "0"],
        ["simulate", "norms", "--prior", "spherical", "--n", "5", "--trials", "1",
         "--max-iters", "0"],
        ["simulate", "norms", "--prior", "spherical", "--n", "5", "--trials", "0"],
        ["simulate", "norms", "--prior", "spherical", "--n", "5", "--trials", "1",
         "--lambda", "nan"],
        ["simulate", "norms", "--prior", "spherical", "--n", "5", "--trials", "1",
         "--lambda", "-1"],
        ["simulate", "norms", "--prior", "spherical", "--n", "5", "--trials", "1",
         "--lambda", "inf"],
        ["simulate", "bbp", "--n", "20", "--lambda", "nan", "--trials", "1"],
        ["simulate", "bbp", "--n", "20", "--lambda", "inf", "--trials", "1"],
        ["replica", "--prior", "spherical", "--d", "3", "--lambda", "nan"],
        ["replica", "--prior", "spherical", "--d", "3", "--lambda", "inf"],
        ["replica", "--prior", "rademacher", "--d", "3", "--lambda", "nan"],
        ["replica", "--prior", "rademacher", "--d", "3", "--lambda", "inf"],
        ["ratefn", "--prior", "rademacher", "--grid", str(10**12)],
        ["simulate", "tails", "--prior", "rademacher", "--n", "10", "--trials", str(10**12)],
        ["simulate", "norms", "--prior", "spherical", "--n", "5", "--trials", str(10**12)],
        ["simulate", "detect", "--prior", "rademacher", "--n", "8", "--trials", str(10**12)],
        ["simulate", "recover", "--prior", "rademacher", "--n", "8", "--trials", str(10**12)],
        ["simulate", "bbp", "--n", "20", "--lambda", "2", "--trials", str(10**12)],
        ["simulate", "tails", "--prior", "spherical", "--n", str(10**9), "--trials", "1"],
        ["replica", "--prior", "spherical", "--d", "3", "--lambda", "1e200"],
        ["replica", "--prior", "rademacher", "--d", "3", "--lambda", "1e200"],
        ["replica", "--prior", "rademacher", "--d", "2", "--lambda", "1e-300"],
        ["simulate", "norms", "--prior", "spherical", "--n", "2", "--d", "26", "--trials", "1"],
        ["simulate", "norms", "--prior", "spherical", "--n", str(10**9), "--d", str(10**6),
         "--trials", "1"],
        # checked in main before dispatch, though no command starts a thread
        ["thresholds", "--prior", "spherical", "--d", "3", "--threads", "0"],
        ["thresholds", "--prior", "spherical", "--d", "3", "--threads", "-1"],
        ["thresholds", "--prior", "spherical", "--d", "3", "--threads", "100000"],
        ["simulate", "norms", "--prior", "spherical", "--n", "5", "--d", "3..5", "--trials", "1"],
        ["ratefn", "--prior", "rademacher", "--grid", "100001"],
        ["simulate", "norms", "--prior", "spherical", "--n", "5", "--trials", "1",
         "--restarts", str(10**9)],
        ["simulate", "detect", "--prior", "rademacher", "--n", "25", "--lambda", "2",
         "--trials", "1"],
        ["simulate", "detect", "--prior", "spherical", "--n", "5", "--lambda", "2",
         "--trials", "1"],
        ["ratefn", "--prior", "rademacher", "--n", "201", "--grid", "3"],
        ["replica", "--prior", "spherical", "--d", "3", "--lambda", ","],
        ["simulate", "tails", "--prior", "rademacher", "--n", "5", "--trials", "10",
         "--tgrid", ","],
        ["simulate", "norms", "--prior", "spherical", "--n", "10", "--d", "3",
         "--lambda", "1e155", "--trials", "1"],
        ["simulate", "detect", "--prior", "spherical", "--test", "injective_norm", "--n", "10",
         "--d", "3", "--lambda", "1e160", "--trials", "1"],
        ["simulate", "bbp", "--n", "10", "--lambda", "1e200", "--trials", "1"],
        ["thresholds", "--prior", "spherical", "--d", "3", "--out", "/dev/null/t.csv"],
        ["simulate", "detect", "--prior", "rademacher", "--n", "6", "--d", "3", "--lambda", "1",
         "--trials", "2", "--records", "/dev/null/r.csv"],
        # SpikePrior rejects --rho on a prior that has no sparsity
        ["thresholds", "--prior", "spherical", "--d", "3", "--rho", "0.3"],
        ["thresholds", "--prior", "rademacher", "--d", "3", "--rho", "0.3"],
        ["simulate", "recover", "--prior", "rademacher", "--n", "6", "--d", "3", "--lambda", "-1",
         "--trials", "2"],
        ["replica", "--prior", "spherical", "--d", "3"],
        ["replica", "--prior", "spherical", "--d", "3..4", "--lambda", "1"],
        # 17 significant digits round-trip a double; more are refused before any row
        ["thresholds", "--prior", "spherical", "--d", "3", "--precision", "18"],
        ["thresholds", "--prior", "spherical", "--d", "3", "--precision", "2000000000"],
        # spherical branch tables the q scan cannot resolve: both roots in its
        # last cell, or the low one below its first point
        ["replica", "--prior", "spherical", "--d", "1000000", "--lambda", "3"],
        ["replica", "--prior", "spherical", "--d", "3", "--lambda", "1e5"],
    ],
    ids=["tails_tgrid", "tails_tgrid_past_exact_cap", "tails_spherical_tgrid_1", "ratefn_tmax", "spherical_replica_d30000", "detect_nan_snr",
         "detect_inf_epsilon", "norms_restarts_0", "norms_restarts_negative",
         "ratefn_n_negative", "ratefn_n_0", "tails_n_0", "tails_trials_0", "bbp_trials_0",
         "norms_max_iters_0", "norms_trials_0", "norms_nan_snr", "norms_negative_snr",
         "norms_inf_snr", "bbp_nan_snr", "bbp_inf_snr", "spherical_replica_nan_snr",
         "spherical_replica_inf_snr", "rademacher_replica_nan_snr",
         "rademacher_replica_inf_snr", "ratefn_grid_huge", "tails_trials_huge",
         "norms_trials_huge", "detect_trials_huge", "recover_trials_huge", "bbp_trials_huge",
         "tails_n_huge", "spherical_replica_huge_snr", "rademacher_replica_huge_snr",
         "rademacher_replica_tiny_snr", "norms_d26_symmetrize", "norms_huge_n_and_d",
         "threads_0", "threads_negative", "threads_huge", "simulate_d_range",
         "ratefn_grid_over_cap", "norms_restarts_huge", "detect_support_over_cap",
         "detect_spherical_mle", "ratefn_n_over_exact_cap", "replica_empty_lambda",
         "tails_empty_tgrid", "norms_huge_snr", "detect_injective_huge_snr", "bbp_huge_snr",
         "out_unwritable", "records_unwritable", "spherical_rho", "rademacher_rho",
         "recover_negative_snr", "replica_branch_no_lambda", "replica_branch_d_range",
         "precision_18", "precision_2e9", "spherical_replica_d1e6_unresolved",
         "spherical_replica_snr1e5_unresolved"],
)
def test_library_errors_exit_2_with_one_line(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("spiked-tensor: error: ")


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "1e200"])
def test_simulate_snr_out_of_range_prints_one_line_for_every_kind(value, capsys):
    # the config checks the snr before trial 0, in the sampler's words
    expected = f"spiked-tensor: error: snr (--lambda) must lie in [0, 1e+06], got {float(value)!r}\n"
    for kind in (["detect", "--prior", "rademacher", "--n", "8"],
                 ["recover", "--prior", "rademacher", "--n", "8"],
                 ["norms", "--prior", "spherical", "--n", "5"],
                 ["bbp", "--n", "20"]):
        assert main(["simulate", *kind, "--lambda", value, "--trials", "1"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", expected)


# Each command, and each simulate kind, takes only the flags it reads, plus these.
EVERY_COMMAND = {"--threads", "--out", "--format", "--precision"}
READS = {
    "thresholds": "--prior --rho --d --replica --asymptotics",
    "ratefn": "--prior --rho --grid --tmax --n",
    "replica": "--prior --d --lambda --thresholds",
    "simulate detect": "--prior --rho --seed --n --d --lambda --trials --test --epsilon "
                       "--restarts --max-iters --records",
    "simulate recover": "--prior --rho --seed --n --d --lambda --trials --test "
                        "--restarts --max-iters --records",
    "simulate tails": "--prior --rho --seed --n --trials --tgrid",
    "simulate norms": "--prior --rho --seed --n --d --lambda --trials --restarts --max-iters",
    "simulate bbp": "--seed --n --lambda --trials",
}
# the flags each command once accepted and does not read
UNREAD = {
    "thresholds": "--seed",
    "ratefn": "--seed",
    "replica": "--seed --rho",
    "simulate detect": "--tgrid --tol",
    "simulate recover": "--tgrid --epsilon --tol",
    "simulate tails": "--d --lambda --test --epsilon --restarts --max-iters --tol --records",
    "simulate norms": "--test --epsilon --tgrid --records --tol",
    "simulate bbp": "--prior --rho --d --test --epsilon --tgrid --restarts --max-iters --tol "
                    "--records",
}
# a valid argv per command, and a value per flag
VALID = {
    "thresholds": ["thresholds", "--prior", "spherical", "--d", "3"],
    "ratefn": ["ratefn", "--prior", "rademacher", "--grid", "3"],
    "replica": ["replica", "--prior", "spherical", "--d", "3", "--thresholds"],
    "simulate detect": ["simulate", "detect", "--prior", "rademacher", "--n", "6", "--trials", "1"],
    "simulate recover": ["simulate", "recover", "--prior", "rademacher", "--n", "6",
                         "--trials", "1"],
    "simulate tails": ["simulate", "tails", "--prior", "rademacher", "--n", "6", "--trials", "1"],
    "simulate norms": ["simulate", "norms", "--prior", "spherical", "--n", "4", "--trials", "1"],
    "simulate bbp": ["simulate", "bbp", "--n", "20", "--lambda", "2", "--trials", "1"],
}
VALUE = {"--seed": "1", "--rho": "0.2", "--tgrid": "0.5", "--epsilon": "0.7", "--d": "3",
         "--lambda": "1", "--test": "mle", "--restarts": "2", "--max-iters": "0", "--tol": "1e-6",
         "--records": "r.csv", "--prior": "rademacher"}


def _leaf_parsers(parser, prefix=""):
    """(command, parser) for each command and each simulate kind."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _leaf_parsers(sub, f"{prefix}{name} ")
            return
    yield prefix.strip(), parser


def test_each_command_takes_only_the_flags_it_reads():
    accepted = {
        command: {flag for action in p._actions for flag in action.option_strings}
        - {"-h", "--help"}
        for command, p in _leaf_parsers(build_parser())
    }
    assert accepted == {command: set(flags.split()) | EVERY_COMMAND
                        for command, flags in READS.items()}
    assert sum(len(flags) for flags in accepted.values()) == 88
    assert all(not set(UNREAD[c].split()) & accepted[c] for c in accepted)
    assert sum(len(flags.split()) for flags in UNREAD.values()) == 32


@pytest.mark.parametrize("argv, message", [
    (VALID[command] + [flag, VALUE[flag]], f"unrecognized arguments: {flag} {VALUE[flag]}")
    for command, flags in UNREAD.items() for flag in flags.split()
] + [
    (["replica", "--prior", "sparse", "--rho", "0.2", "--d", "3", "--lambda", "1.0"],
     "argument --prior: invalid choice: 'sparse'"),
], ids=[
    f"{command.split()[-1]}_{flag[2:].replace('-', '_')}"
    for command, flags in UNREAD.items() for flag in flags.split()
] + ["sparse_replica"])
def test_rejected_flags_exit_2_after_usage(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    command = " ".join(argv[:2]) if argv[0] == "simulate" else argv[0]
    assert lines[0].startswith(f"usage: spiked-tensor {command} [-h]")
    assert re.match(r"spiked-tensor( \w+){0,2}: error: ", lines[-1]) and message in lines[-1]


@pytest.mark.parametrize("flag, argv", [
    ("--lambda", ["replica", "--prior", "spherical", "--d", "3", "--lambda", ","]),
    ("--tgrid", ["simulate", "tails", "--prior", "rademacher", "--n", "5", "--trials", "10",
                 "--tgrid", ""]),
])
def test_empty_value_list_names_the_flag(flag, argv, capsys):
    assert main(argv) == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("argv, name", [
    (["ratefn", "--prior", "spherical", "--tmax", "1"], "--tmax"),
    (["simulate", "tails", "--prior", "spherical", "--n", "5", "--trials", "10", "--tgrid", "1"],
     "tail points t"),
])
def test_overlap_domain_errors_name_their_input(argv, name, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"spiked-tensor: error: {name} must lie in [0, 1] ([0, 1) for the spherical prior), "
        "got 1.0\n"
    )


def test_sure_empirical_tail_prints_a_zero_rate(capsys):
    # at n = 3 a sparse pair rarely shares a support point, so every overlap is >= 0
    code, out = run_cli(["simulate", "tails", "--prior", "sparse", "--rho", "0.3", "--n", "3",
                         "--trials", "5"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert (rows[0]["t"], rows[0]["empirical_tail"], rows[0]["empirical_rate"]) == ("0", "1", "0")


def test_precision_is_checked_before_any_row(monkeypatch, capsys):
    def no_rows(*args, **kwargs):
        raise AssertionError("a row was computed")

    monkeypatch.setattr("spiked_tensor.thresholds.threshold_report", no_rows)
    argv = ["thresholds", "--prior", "sparse", "--rho", "0.3", "--d", "2..3", "--precision", "0"]
    assert main(argv) == 2
    assert "precision must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("work, argv", [
    ("spiked_tensor.thresholds.threshold_report",
     ["thresholds", "--prior", "spherical", "--d", "3", "--out", "/dev/null/t.csv"]),
    ("spiked_tensor.montecarlo.injective_norm_experiment",
     ["simulate", "norms", "--prior", "spherical", "--n", "6", "--trials", "1",
      "--out", "/dev/null/n.csv"]),
    ("spiked_tensor.montecarlo.detection_experiment",
     ["simulate", "detect", "--prior", "rademacher", "--n", "6", "--d", "3", "--lambda", "1",
      "--trials", "2", "--records", "/dev/null/r.csv"]),
], ids=["thresholds_out", "norms_out", "detect_records"])
def test_bad_output_path_fails_before_any_work(work, argv, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the output path was checked")

    monkeypatch.setattr(work, no_work)
    assert main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and "/dev/null/" in lines[0]


def test_failed_run_keeps_output_files_as_they_were(tmp_path, capsys):
    kept, fresh = tmp_path / "kept.csv", tmp_path / "fresh.csv"
    kept.write_text("earlier output\n")
    bad_snr = ["simulate", "detect", "--prior", "rademacher", "--n", "6", "--d", "3",
               "--lambda", "nan", "--trials", "2"]
    for flag in ("--out", "--records"):
        assert main(bad_snr + [flag, str(kept)]) == 2
        assert main(bad_snr + [flag, str(fresh)]) == 2
    capsys.readouterr()
    assert kept.read_text() == "earlier output\n"
    assert not fresh.exists()


def test_map_test_is_gone(capsys):
    # MAP made the MLE test's decisions (a constant shift of statistic and threshold)
    argv = ["simulate", "detect", "--prior", "rademacher", "--test", "map", "--n", "8",
            "--lambda", "2", "--trials", "1"]
    assert main(argv) == 2
    assert "invalid choice: 'map'" in capsys.readouterr().err


def test_huge_order_names_the_memory_cap(capsys):
    # d * n^d is compared with the cap without forming n^d
    argv = ["simulate", "norms", "--prior", "spherical", "--n", str(10**9), "--d", str(10**6),
            "--trials", "1"]
    assert main(argv) == 2
    assert "memory cap" in capsys.readouterr().err


def test_norms_at_order_12(capsys):
    # n = 3, d = 12 passes the memory cap, and drawing the noise costs no d! loop
    code, out = run_cli(["simulate", "norms", "--prior", "spherical", "--n", "3", "--d", "12",
                         "--trials", "1", "--restarts", "1", "--max-iters", "5"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 1


@pytest.mark.parametrize("prior, lam", [("spherical", "1e200"), ("rademacher", "1e200"),
                                        ("rademacher", "1e-300"), ("rademacher", "nan")])
def test_replica_snr_errors_name_the_flag(prior, lam, capsys):
    assert main(["replica", "--prior", prior, "--d", "2", "--lambda", lam]) == 2
    assert "--lambda" in capsys.readouterr().err


@pytest.mark.parametrize("rho, d", [("1e-12", "2"), ("1e-300", "3")])
def test_thresholds_sparse_tiny_rho(rho, d, capsys):
    # the sigma^2 probe divided by a rate that cancelled to 0 here
    code, out = run_cli(["thresholds", "--prior", "sparse", "--rho", rho, "--d", d], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    lower, upper = float(rows[0]["lambda_lower"]), float(rows[0]["lambda_upper"])
    assert math.isfinite(lower) and math.isfinite(upper)
    assert 0.0 < lower <= upper


def test_thread_determinism_quick(tmp_path, capsys):
    outputs = []
    for threads in ("1", "2", "8"):
        path = tmp_path / f"t{threads}.csv"
        code, _ = run_cli(
            [
                "simulate", "detect", "--prior", "rademacher", "--n", "10", "--d", "3",
                "--lambda", "3", "--trials", "12", "--seed", "9",
                "--threads", threads, "--out", str(path),
            ],
            capsys,
        )
        assert code == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_no_command_starts_a_thread(monkeypatch, capsys):
    argvs = [
        ["simulate", "norms", "--prior", "spherical", "--n", "6", "--d", "3", "--trials", "3",
         "--restarts", "2"],
        ["simulate", "tails", "--prior", "rademacher", "--n", "10", "--trials", "25000"],
        ["thresholds", "--prior", "rademacher", "--d", "3..4"],
    ]
    serial = [run_cli(argv + ["--threads", "1"], capsys) for argv in argvs]

    def refuse(self):
        raise RuntimeError(f"thread {self.name} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    for argv, expected in zip(argvs, serial):
        assert expected[0] == 0
        assert run_cli(argv + ["--threads", "8"], capsys) == expected


def test_cli_import_leaves_scipy_linalg_unloaded():
    # only the d = 2 eigenpair needs scipy.linalg, and every process would pay for its import
    code = "import sys, spiked_tensor.cli; print('scipy.linalg' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True, timeout=60)
    assert proc.stdout.strip() == "False"



def test_a_reused_parser_prints_what_a_fresh_process_prints(capsys, monkeypatch):
    # the parser is built once per process: a rejected argv, then a valid one,
    # in one process print the bytes each prints in an interpreter of its own
    argvs = [
        ["simulate", "tails", "--prior", "uniform", "--n", "10"],
        ["simulate", "tails", "--prior", "rademacher", "--n", "10", "--trials", "300"],
    ]
    monkeypatch.setenv("COLUMNS", "80")  # the usage line wraps at the terminal width
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = "import sys; from spiked_tensor.cli import main; sys.exit(main(sys.argv[1:]))"
    codes = []
    for argv in argvs:
        fresh = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                               text=True, timeout=60)
        here = main(argv)
        captured = capsys.readouterr()
        assert (here, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        codes.append(here)
    assert codes == [2, 0]


# One argv per table kind: the sha256 (first 16 hex digits) of stdout and of
# the --records file were recorded before the tables were built from the
# result records, and no byte of either may move.  The two norms pins were
# re-pinned when the power-iteration ascent stopped taking steps that lower f
# and began ending a start after 80 failed attempts in a row: trial 0's
# best start now ends converged, so its `converged` cell reads 1 (true), not
# 0 (false); no other byte moved.
RECORDS = "{records}"  # replaced by a temporary path
PINNED_ARGV = {
    "thresholds": ["thresholds", "--prior", "spherical", "--d", "3..4", "--replica",
                   "--asymptotics"],
    "replica_branches": ["replica", "--prior", "rademacher", "--d", "3", "--lambda", "1.5,2"],
    "replica_thresholds": ["replica", "--prior", "spherical", "--d", "3", "--thresholds"],
    "ratefn": ["ratefn", "--prior", "rademacher", "--n", "20", "--grid", "5"],
    "detect": ["simulate", "detect", "--prior", "rademacher", "--n", "8", "--d", "3",
               "--lambda", "3", "--trials", "4", "--seed", "7", "--records", RECORDS],
    "recover": ["simulate", "recover", "--prior", "rademacher", "--n", "8", "--d", "3",
                "--lambda", "2", "--trials", "4", "--seed", "11", "--records", RECORDS],
    "tails": ["simulate", "tails", "--prior", "sparse", "--rho", "0.3", "--n", "300",
              "--trials", "200", "--seed", "1", "--tgrid", "0.1,0.4,1"],
    "norms": ["simulate", "norms", "--prior", "spherical", "--n", "6", "--d", "3",
              "--trials", "2", "--seed", "4", "--restarts", "3"],
    "bbp": ["simulate", "bbp", "--n", "40", "--lambda", "2", "--trials", "2", "--seed", "7"],
}
PINNED_DIGESTS = {
    ("thresholds", "csv"): ["95feac94058d8947"],
    ("thresholds", "json"): ["88b02d35e4074028"],
    ("replica_branches", "csv"): ["80b5c539c7a76628"],
    ("replica_branches", "json"): ["a403dfa3ce48d011"],
    ("replica_thresholds", "csv"): ["05b8b38b9872a221"],
    ("replica_thresholds", "json"): ["110c374faececdea"],
    ("ratefn", "csv"): ["6ab465d3600d39f1"],
    ("ratefn", "json"): ["a641b93403773b5a"],
    ("detect", "csv"): ["f6aa2144c2f0110c", "08a1d6f7f0a7b4dd"],
    ("detect", "json"): ["d8df0720ff05fef3", "08a1d6f7f0a7b4dd"],
    ("recover", "csv"): ["6cb0d33a4ec02b0e", "c039d6537ab6af15"],
    ("recover", "json"): ["35d237d814794e4a", "c039d6537ab6af15"],
    ("tails", "csv"): ["d38b7fab36113848"],
    ("tails", "json"): ["95cf92ca441b5c2d"],
    ("norms", "csv"): ["e3642d5a52e7cabc"],
    ("norms", "json"): ["54c990529da988e5"],
    ("bbp", "csv"): ["5a827cdaf898d215"],
    ("bbp", "json"): ["0828a67cae3d6f02"],
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("kind", list(PINNED_ARGV))
def test_table_bytes_are_pinned(kind, fmt, tmp_path, capsys):
    records = tmp_path / "records.csv"
    argv = [str(records) if a == RECORDS else a for a in PINNED_ARGV[kind]]
    code, out = run_cli(argv + ["--format", fmt], capsys)
    assert code == 0
    digests = [hashlib.sha256(out.encode()).hexdigest()[:16]]
    if records.exists():
        digests.append(hashlib.sha256(records.read_bytes()).hexdigest()[:16])
    assert digests == PINNED_DIGESTS[kind, fmt]
