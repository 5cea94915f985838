"""Generated CLI argument vectors: every accepted input gives a table or one error line.

Each argv is drawn from a bounded domain of flag values, valid and invalid,
kept small enough that every call is cheap.  Each ``simulate`` kind has a
test of its own, which draws valid values of the flags ``build_parser``
gives the kind and at most one fault: an invalid value, a flag the kind does
not read, or a faulty prior; some draw must reach a table.  Each invalid
value is also appended to one valid argv per kind, which it must turn into
an exit 2.  The seed corpus is the probes quoted in ROADMAP.md and
CHANGES.md.  For each call:

* the exit code is 0 or 2, and no exception escapes ``main``;
* on exit 2, stdout is empty and the last stderr line is the program's
  ``error:`` line;
* on exit 0, the header is the command's, and ``NaN`` / ``inf`` appear only
  in the columns below that document them;
* the call finishes within ``WALL_BUDGET_S``.
"""

import argparse
import contextlib
import io
import json
import re
import time

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from spiked_tensor.cli import build_parser, main

WALL_BUDGET_S = 20.0
ERROR_LINE = re.compile(r"^spiked-tensor( \w+){0,2}: error: ")

THRESHOLD_COLUMNS = ["d", "lambda_lower", "lambda_upper", "mu_d"]
TAIL_COLUMNS = ["t", "empirical_tail", "empirical_rate", "rate_value", "exact_tail", "exact_rate"]
SIMULATE_COLUMNS = {
    "detect": ["test", "n", "d", "lambda", "trials", "epsilon", "threshold", "accuracy",
               "type_i_rate", "type_ii_rate", "mean_abs_overlap"],
    "recover": ["test", "n", "d", "lambda", "trials", "mean_abs_overlap", "mean_overlap_pow_d"],
    "tails": TAIL_COLUMNS,
    "norms": ["trial", "estimate", "converged"],
    "bbp": ["n", "lambda", "trials", "mean_top_eigenvalue", "predicted_top_eigenvalue",
            "mean_alignment_sq", "predicted_alignment_sq"],
}
# Columns documented to hold a non-finite cell: NaN where a quantity does
# not apply (mu_d at d = 2, replica off the two priors, the Rademacher order
# parameter mu on spherical branches, exact tails past the combinatorics
# cap, the MLE margin epsilon of an injective-norm detection), inf for the rate of an impossible event (an empirical or exact tail
# of 0, the spherical rate at t = 1).
NON_FINITE_OK = {
    "mu_d", "replica", "asymptotic_lower", "asymptotic_upper", "mu", "epsilon",
    "rate", "empirical_rate", "rate_value", "exact_tail", "exact_rate",
}


def _opt(flag: str, values):
    """An optional flag: absent, or present with one of ``values``."""
    return st.one_of(st.just([]), st.sampled_from(values).map(lambda v: [flag, v]))


def _switch(flag: str):
    return st.sampled_from([[], [flag]])


BAD_RHOS = ["0", "-0.1", "2", "nan", "inf"]
PRIORS = st.sampled_from(
    [["--prior", "spherical"], ["--prior", "rademacher"], ["--prior", "sparse"], []]
    + [["--prior", "sparse", "--rho", rho] for rho in ["0.3", "0.5", "1", "1e-12"] + BAD_RHOS]
)
# a sparse threshold report costs a fraction of a second per order (a
# 10^4-point rate grid), so generated sparse rows cover valid rhos too
THRESHOLD_PRIORS = st.sampled_from(
    [["--prior", "spherical"], ["--prior", "rademacher"]]
    + [["--prior", "sparse", "--rho", rho] for rho in ["0.3", "1", "1e-12"] + BAD_RHOS]
)

def _flatten(parts) -> list[str]:
    return [token for part in parts for token in part]


COMMON = st.tuples(
    _opt("--format", ["csv", "json"]), _opt("--threads", ["1", "2", "0", "300"]),
    _opt("--precision", ["1", "17", "0", "-2"]),
).map(_flatten)


thresholds_argv = st.tuples(
    st.just(["thresholds"]), THRESHOLD_PRIORS,
    st.sampled_from(["2", "3", "7", "2..5", "40", "1000", "1000000", "1", "3..2", "x"]).map(
        lambda d: ["--d", d]),
    _switch("--replica"), _switch("--asymptotics"), COMMON,
).map(_flatten)

ratefn_argv = st.tuples(
    st.just(["ratefn"]), PRIORS,
    _opt("--grid", ["1", "2", "7", "100", "0"]),
    _opt("--tmax", ["0", "0.5", "1", "1.5", "-0.2", "nan"]),
    _opt("--n", ["-1", "0", "1", "5", "60", "200", "201", "1000000"]),
    COMMON,
).map(_flatten)

replica_argv = st.tuples(
    st.just(["replica"]), PRIORS,
    st.sampled_from(["2", "3", "5", "2..4", "0"]).map(lambda d: ["--d", d]),
    _opt("--lambda", ["0.5", "1.2,2,3", "2.5", ",", "", "nan", "-1", "1e-7", "1e6", "x"]),
    _switch("--thresholds"), COMMON,
).map(_flatten)

# A simulate kind draws a valid value of each of its flags, then at most one
# fault: an invalid value of one of its flags (argparse keeps a repeated
# flag's last value), a flag it does not read, or in place of the prior one of
# PRIOR_FAULTS, since an appended fault cannot remove a flag.
SIMULATE_VALID = {
    "--prior": [["--prior", "spherical"], ["--prior", "rademacher"]]
    + [["--prior", "sparse", "--rho", rho] for rho in ["0.3", "0.5", "1"]],
    "--n": [["--n", n] for n in ["1", "2", "6", "10"]],
    "--trials": [["--trials", "1"], ["--trials", "3"]],
    "--restarts": [["--restarts", "1"], ["--restarts", "2"]],
    "--seed": [[], ["--seed", "3"]],
    "--d": [[], ["--d", "2"], ["--d", "3"], ["--d", "4"]],
    "--lambda": [[], ["--lambda", "0"], ["--lambda", "1"], ["--lambda", "3"]],
    "--test": [[], ["--test", "mle"], ["--test", "injective_norm"]],
    "--epsilon": [[], ["--epsilon", "0.1"], ["--epsilon", "-1"]],
    "--tgrid": [[], ["--tgrid", "0,0.5"], ["--tgrid", "0,0.5,1"], ["--tgrid", "0.25"]],
    "--max-iters": [[], ["--max-iters", "5"], ["--max-iters", "30"]],
    "--format": [[], ["--format", "csv"], ["--format", "json"]],
    "--threads": [[], ["--threads", "1"], ["--threads", "2"]],
    "--precision": [[], ["--precision", "1"], ["--precision", "17"]],
}
# no --prior, sparse without --rho, and rho = 1e-12 (an empty support at n <= 10)
PRIOR_FAULTS = [[], ["--prior", "sparse"], ["--prior", "sparse", "--rho", "1e-12"]]
SIMULATE_INVALID = [
    ["--prior", "uniform"], *(["--rho", rho] for rho in ["0.3"] + BAD_RHOS), ["--n", "0"],
    ["--n", "-3"], ["--trials", "0"], ["--trials", "-2"], ["--seed", "-1"],
    ["--seed", str(2**70)], ["--d", "3..4"], ["--d", "1"], ["--lambda", "nan"],
    ["--lambda", "-1"], ["--lambda", "inf"], ["--lambda", "1e200"], ["--test", "map"],
    ["--epsilon", "inf"], ["--tgrid", ","], ["--tgrid", "1.5"], ["--tgrid", "-0.5"],
    ["--tgrid", "nan"], ["--restarts", "0"], ["--restarts", "-1"], ["--max-iters", "0"],
    ["--threads", "0"], ["--threads", "300"], ["--precision", "0"], ["--precision", "-2"],
    ["--records", "/dev/null/r.csv"],
]


def _subcommands(parser) -> dict:
    return next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))


# each kind's flags as build_parser declares them
SIMULATE_READS = {
    kind: [flag for action in p._actions for flag in action.option_strings
           if flag not in ("-h", "--help")]
    for kind, p in _subcommands(_subcommands(build_parser())["simulate"]).items()
}
SIMULATE_FLAGS = sorted({flag for reads in SIMULATE_READS.values() for flag in reads})


def _kind_argv(kind: str):
    reads = SIMULATE_READS[kind]
    valid = st.tuples(*(st.sampled_from(SIMULATE_VALID[flag])
                        for flag in reads if flag in SIMULATE_VALID and flag != "--prior"))
    invalid = [pair for pair in SIMULATE_INVALID if pair[0] in reads]
    unread = [[flag, "1"] for flag in SIMULATE_FLAGS if flag not in reads]
    priors = SIMULATE_VALID["--prior"] if "--prior" in reads else [[]]
    prior, prior_fault = st.sampled_from(priors), st.sampled_from(PRIOR_FAULTS)
    draws = [st.tuples(prior, valid, st.just([])),
             st.tuples(prior, valid, st.sampled_from(invalid + unread))]
    if "--prior" in reads:
        draws.append(st.tuples(prior_fault, valid, st.just([])))
    return st.one_of(*draws).map(
        lambda draw: ["simulate", kind, *draw[0], *_flatten(draw[1]), *draw[2]])


# one cheap valid argv per kind, for appending each fault to: a spherical
# spike under the injective-norm test, so that detect and recover read the
# power-iteration flags (an MLE reads none of them), and norms at lambda = 0,
# so that --restarts 0 leaves it no start
SIMULATE_POWER = ["--prior", "spherical", "--n", "6", "--trials", "1", "--restarts", "1",
                  "--max-iters", "5"]
SIMULATE_BASE = {
    "detect": SIMULATE_POWER + ["--test", "injective_norm"],
    "recover": SIMULATE_POWER + ["--test", "injective_norm"],
    "tails": ["--prior", "rademacher", "--n", "6", "--trials", "1"],
    "norms": SIMULATE_POWER,
    "bbp": ["--n", "6", "--trials", "1"],
}


def _expected_columns(argv: list[str]) -> list[str]:
    if argv[0] == "thresholds":
        return (THRESHOLD_COLUMNS + (["replica"] if "--replica" in argv else [])
                + (["asymptotic_lower", "asymptotic_upper"] if "--asymptotics" in argv else []))
    if argv[0] == "ratefn":
        return ["t", "rate"] + (["exact_tail", "exact_rate"] if "--n" in argv else [])
    if argv[0] == "replica":
        if "--thresholds" in argv:
            return ["d", "lambda1", "lambda2"]
        return ["lambda", "branch", "q", "mu", "free_energy", "residual"]
    return SIMULATE_COLUMNS[argv[1]]


def _table(out: str, argv: list[str]) -> tuple[list[str], list[list[str]]]:
    if "json" in argv:
        doc = json.loads(out)
        return doc["columns"], [[str(row[c]) for c in doc["columns"]] for row in doc["rows"]]
    lines = out.splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def check_argv(argv: list[str]) -> int:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    elapsed = time.perf_counter() - start
    assert elapsed < WALL_BUDGET_S, f"{argv} took {elapsed:.1f} s"
    assert code in (0, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == "", argv
        assert ERROR_LINE.match(err.getvalue().splitlines()[-1]), (argv, err.getvalue())
        return code
    header, rows = _table(out.getvalue(), argv)
    assert header == _expected_columns(argv), argv
    for row in rows:
        for column, cell in zip(header, row):
            if cell in ("NaN", "nan", "inf", "-inf"):
                assert column in NON_FINITE_OK, (argv, column, row)
    return code


FUZZ_SETTINGS = settings(derandomize=True, deadline=None,
                         suppress_health_check=[HealthCheck.too_slow])


@settings(FUZZ_SETTINGS, max_examples=190)
@given(st.one_of(thresholds_argv, ratefn_argv, replica_argv))
# probes quoted in ROADMAP.md and CHANGES.md
@example(["thresholds", "--prior", "spherical", "--d", "40", "--replica"])
@example(["thresholds", "--prior", "rademacher", "--d", "1000000"])
@example(["thresholds", "--prior", "sparse", "--rho", "1e-12", "--d", "2"])
@example(["replica", "--prior", "spherical", "--d", "1000000", "--lambda", "3"])
@example(["replica", "--prior", "spherical", "--d", "2", "--lambda", "1000000"])
@example(["replica", "--prior", "rademacher", "--d", "3", "--lambda", "40"])
@example(["replica", "--prior", "rademacher", "--d", "2", "--lambda", "1e-300"])
@example(["replica", "--prior", "spherical", "--d", "3", "--lambda", "1e200"])
@example(["replica", "--prior", "spherical", "--d", "3", "--lambda", ","])
@example(["ratefn", "--prior", "rademacher", "--n", "-1", "--grid", "3"])
@example(["ratefn", "--prior", "rademacher", "--n", "201", "--grid", "3"])
@example(["ratefn", "--prior", "rademacher", "--grid", str(10**12)])
@example(["ratefn", "--prior", "sparse", "--rho", "0.3", "--grid", "20000"])
@example(["simulate", "norms", "--prior", "spherical", "--n", "3", "--d", "12", "--trials", "1",
          "--restarts", "1", "--max-iters", "5"])
@example(["simulate", "norms", "--prior", "spherical", "--n", str(10**9), "--d", str(10**6),
          "--trials", "1"])
@example(["simulate", "norms", "--prior", "spherical", "--n", "5", "--trials", "1",
          "--restarts", str(10**9)])
@example(["simulate", "tails", "--prior", "spherical", "--n", str(10**9), "--trials", "1"])
@example(["simulate", "tails", "--prior", "rademacher", "--n", "5", "--trials", "10",
          "--tgrid", ","])
@example(["simulate", "detect", "--prior", "rademacher", "--n", "25", "--lambda", "2",
          "--trials", "1"])
@example(["simulate", "detect", "--prior", "spherical", "--n", "5", "--lambda", "2",
          "--trials", "1"])
@example(["simulate", "detect", "--prior", "rademacher", "--n", "8", "--trials", str(10**12)])
@example(["simulate", "bbp", "--n", "8000", "--lambda", "2", "--trials", "1"])
def test_generated_argv_give_a_table_or_one_error_line(argv):
    check_argv(argv)


@pytest.mark.parametrize("kind", list(SIMULATE_READS))
def test_generated_simulate_argv_give_a_table_or_one_error_line(kind):
    tables = []

    @settings(FUZZ_SETTINGS, max_examples=30)
    @given(_kind_argv(kind))
    def check(argv):
        tables.append(check_argv(argv) == 0)

    check()
    assert any(tables), f"no generated simulate {kind} argv reached a table"


@pytest.mark.parametrize("kind", list(SIMULATE_READS))
def test_each_invalid_simulate_value_exits_2_with_one_error_line(kind):
    assert check_argv(["simulate", kind, *SIMULATE_BASE[kind]]) == 0
    faults = [pair for pair in SIMULATE_INVALID if pair[0] in SIMULATE_READS[kind]]
    faults += PRIOR_FAULTS[1:] * ("--prior" in SIMULATE_READS[kind])
    for fault in faults:
        # norms at lambda = 0 samples no spike, so its support may be empty
        expected = 0 if (kind, fault) == ("norms", PRIOR_FAULTS[2]) else 2
        assert check_argv(["simulate", kind, *SIMULATE_BASE[kind], *fault]) == expected, fault
