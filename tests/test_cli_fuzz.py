"""Generated CLI argument vectors: every accepted input gives a table or one error line.

Each argv is drawn from a bounded domain of flag values, valid and invalid,
kept small enough that every call is cheap.  The seed corpus is the probes
quoted in ROADMAP.md and CHANGES.md.  For each call:

* the exit code is 0 or 2, and no exception escapes ``main``;
* on exit 2, stdout is empty and the last stderr line is the program's
  ``error:`` line;
* on exit 0, the header is the command's, and ``NaN`` / ``inf`` appear only
  in the columns below that document them;
* the call finishes within ``WALL_BUDGET_S``.
"""

import contextlib
import io
import json
import re
import time

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from spiked_tensor.cli import main

WALL_BUDGET_S = 20.0
ERROR_LINE = re.compile(r"^spiked-tensor( \w+)?: error: ")

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
    _opt("--precision", ["1", "17", "0", "-2"]), _opt("--seed", ["3", "-1", str(2**70)]),
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

simulate_argv = st.tuples(
    st.sampled_from(list(SIMULATE_COLUMNS)).map(lambda kind: ["simulate", kind]), PRIORS,
    _opt("--n", ["1", "2", "6", "10", "0", "-3"]),
    _opt("--d", ["2", "3", "4", "3..4", "1"]),
    _opt("--lambda", ["0", "1", "3", "-1", "nan", "inf", "1e200"]),
    st.sampled_from(["1", "3", "0", "-2"]).map(lambda t: ["--trials", t]),
    _opt("--test", ["mle", "injective_norm", "map"]),
    _opt("--epsilon", ["0.1", "-1", "inf"]),
    _opt("--tgrid", ["0,0.5,1", "0.25", ",", "1.5", "-0.5", "nan"]),
    _opt("--restarts", ["0", "2", "-1"]),
    _opt("--max-iters", ["0", "5", "30"]),
    _opt("--tol", ["1e-6", "-1", "nan"]),
    COMMON,
).map(_flatten)


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


def check_argv(argv: list[str]) -> None:
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
        return
    header, rows = _table(out.getvalue(), argv)
    assert header == _expected_columns(argv), argv
    for row in rows:
        for column, cell in zip(header, row):
            if cell in ("NaN", "nan", "inf", "-inf"):
                assert column in NON_FINITE_OK, (argv, column, row)


@settings(max_examples=250, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(thresholds_argv, ratefn_argv, replica_argv, simulate_argv))
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
