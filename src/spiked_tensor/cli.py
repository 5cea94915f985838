"""Command-line front end.

Subcommands emit CSV (default) or JSON tables:

* ``thresholds`` - per-d lower/upper bounds, the noise injective-norm limit,
  optional replica predictions and asymptotics (phase-diagram curve data);
* ``ratefn``     - (t, f(t)) tables, optionally with exact finite-n tails;
* ``replica``    - fixed-point branch tables or per-d threshold pairs;
* ``simulate``   - seeded Monte Carlo runs: detect | recover | tails |
  norms | bbp.

A ``NaN`` cell marks a value that does not apply to the row; in a
``--records`` file an empty ``decision`` cell marks a recover arm, which
makes no decision.

Every command is deterministic given its flags and seed; output ordering is
fixed.  Every command runs on the caller's thread; ``--threads`` is checked
but changes no work.  Exit codes
report execution health only (0 = completed, 2 = rejected input, printed as
one ``spiked-tensor: error: ...`` line), never statistical outcomes.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import fields

import numpy as np

from . import montecarlo, replica, thresholds
from .montecarlo import ExperimentConfig, PowerIterationSettings, TrialRecord
from .output import OutputSpec, write_table
from .parallel import MAX_THREADS, check_threads
from .rates import check_overlap_point, exact_overlap_tail, rate_function_for, tail_rate
from .rng import RngSeed
from .solvers import BracketError
from .tensors import SpikePrior

MAX_GRID = 10**5  # ratefn rows; each is held until the table is written


def _parse_d_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        values = list(range(int(lo), int(hi) + 1))
    else:
        values = [int(text)]
    if not values or values[0] < 2 or values[-1] > 10**6:
        raise ValueError(f"d range {text!r} outside 2..10^6")
    return values


def _parse_order(text: str) -> int:
    """simulate's --d: one order, not a range."""
    if not text.isdigit() or not 2 <= int(text) <= 10**6:
        raise ValueError(f"--d takes one order in 2..10^6, got {text!r}")
    return int(text)


def _parse_lambda_list(text: str, flag: str) -> list[float]:
    values = [float(part) for part in text.split(",") if part.strip()]
    if not values:
        raise ValueError(f"{flag} takes at least one value, got {text!r}")
    return values


def _prior_from_args(parser: argparse.ArgumentParser, args) -> SpikePrior:
    if args.prior is None:
        parser.error("--prior is required for this command")
    if args.prior == "spherical":
        return SpikePrior.spherical()
    if args.prior == "rademacher":
        return SpikePrior.rademacher()
    if args.rho is None:
        parser.error("--prior sparse requires --rho")
    return SpikePrior.sparse(args.rho)


# a record field whose column takes another name
_COLUMN_NAMES = {"snr": "lambda", "replica_prediction": "replica", "value": "estimate"}


def _row(*records, **cells) -> dict:
    """Table row of result records: every field under its column name, NaN
    for a field that is None (the value does not apply), then ``cells``.
    A later record overrides an earlier one; the table's columns pick."""
    row = {}
    for record in records:
        for name, value in vars(record).items():
            row[_COLUMN_NAMES.get(name, name)] = math.nan if value is None else value
    row.update(cells)
    return row


def _output_spec(args) -> OutputSpec:
    return OutputSpec(format=args.format, path=args.out, precision=args.precision)


def _check_writable(path: str | None) -> None:
    """Raise the OSError that writing ``path`` would raise, before any row is
    computed.  The probe opens for appending, which truncates nothing, and
    removes a file it created.  A path that exists and is neither a regular
    file nor a directory (a device or a pipe, whose reader would see the
    probe close) is left to the write itself."""
    if path is None:
        return
    exists = os.path.exists(path)
    if exists and not (os.path.isfile(path) or os.path.isdir(path)):
        return
    with open(path, "a", encoding="utf-8"):
        pass
    if not exists:
        os.remove(path)


def _add_common(p: argparse.ArgumentParser, *, prior_required: bool = True) -> None:
    p.add_argument(
        "--prior",
        choices=["spherical", "rademacher", "sparse"],
        required=prior_required,
        default=None,
    )
    p.add_argument("--rho", type=float, default=None, help="sparsity for --prior sparse")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--threads", type=int, default=1, help=f"accepted, 1..{MAX_THREADS}; changes no work"
    )
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--precision", type=int, default=9)


# Built once per process: building takes milliseconds (each add_argument makes a
# HelpFormatter, which asks for the terminal size), and parse_args leaves it as it was.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spiked-tensor",
        description="Phase-transition bounds and Monte Carlo checks for spiked Gaussian tensors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("thresholds", help="per-d threshold bound table")
    _add_common(p)
    p.add_argument("--d", required=True, help="single order or range a..b")
    p.add_argument("--replica", action="store_true", help="add the replica prediction column")
    p.add_argument("--asymptotics", action="store_true", help="add asymptotic columns")

    p = sub.add_parser("ratefn", help="(t, f(t)) table for a prior")
    _add_common(p)
    p.add_argument("--grid", type=int, default=100, help="number of t points, 2..10^5")
    p.add_argument("--tmax", type=float, default=None)
    p.add_argument("--n", type=int, default=None, help="add exact finite-n tail columns")

    p = sub.add_parser("replica", help="replica fixed points / thresholds")
    _add_common(p)
    p.add_argument("--d", required=True, help="single order or range a..b")
    p.add_argument("--lambda", dest="snr", default=None, help="snr value or comma list")
    p.add_argument("--thresholds", action="store_true", help="emit (lambda1, lambda2) per d")

    p = sub.add_parser("simulate", help="seeded Monte Carlo experiments")
    p.add_argument("subkind", choices=["detect", "recover", "tails", "norms", "bbp"])
    _add_common(p, prior_required=False)  # bbp needs no prior; others check at dispatch
    p.add_argument("--n", type=int, default=14)
    p.add_argument("--d", default="3", help="one order")
    p.add_argument("--lambda", dest="snr", type=float, default=0.0)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--test", choices=list(montecarlo.TESTS), default="mle")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--tgrid", default=None, help="comma list of t values (tails)")
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--max-iters", type=int, default=500)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--records", default=None, help="write per-trial CSV to this path")
    return parser


def cmd_thresholds(parser, args) -> int:
    prior = _prior_from_args(parser, args)
    ds = _parse_d_range(args.d)
    reports = [thresholds.threshold_report(prior, d, include_replica=args.replica) for d in ds]
    columns = ["d", "lambda_lower", "lambda_upper", "mu_d"]
    if args.replica:
        columns.append("replica")
    if args.asymptotics:
        columns += ["asymptotic_lower", "asymptotic_upper"]
    write_table(
        columns, [_row(rep) for rep in reports], _output_spec(args),
        {"command": "thresholds", "prior": prior.label()},
    )
    return 0


def cmd_ratefn(parser, args) -> int:
    prior = _prior_from_args(parser, args)
    if not 2 <= args.grid <= MAX_GRID:
        raise ValueError(f"--grid must be in 2..{MAX_GRID}, got {args.grid}")
    tmax = args.tmax
    if tmax is None:
        tmax = 1.0 - 1e-9 if prior.kind == "spherical" else 1.0
    check_overlap_point(prior, tmax, "--tmax")
    ts = np.linspace(0.0, tmax, args.grid)
    columns = ["t", "rate"]
    if args.n is not None:
        columns += ["exact_tail", "exact_rate"]
    rows = []
    for t, f in zip(ts.tolist(), rate_function_for(prior).eval_batch(ts).tolist()):
        row = {"t": t, "rate": f}
        if args.n is not None:
            row["exact_tail"] = tail = exact_overlap_tail(prior, args.n, t)
            row["exact_rate"] = tail_rate(tail, args.n)
        rows.append(row)
    write_table(columns, rows, _output_spec(args), {"command": "ratefn", "prior": prior.label()})
    return 0


def cmd_replica(parser, args) -> int:
    prior = _prior_from_args(parser, args)  # the replica functions reject a sparse prior
    ds = _parse_d_range(args.d)
    spec = _output_spec(args)
    if args.thresholds:
        columns = ["d", "lambda1", "lambda2"]
        rows = [dict(zip(columns, (d, *replica.replica_thresholds(prior, d)))) for d in ds]
        write_table(columns, rows, spec, {"command": "replica_thresholds", "prior": prior.label()})
        return 0
    if args.snr is None:
        parser.error("replica branch tables require --lambda (or use --thresholds)")
    if len(ds) != 1:
        parser.error("branch tables take a single --d")
    d = ds[0]
    rows = [
        _row(s)
        for snr in _parse_lambda_list(args.snr, "--lambda")
        for s in replica.fixed_points(prior, d, snr)
    ]
    write_table(
        ["lambda", "branch", "q", "mu", "free_energy", "residual"], rows, spec,
        {"command": "replica", "prior": prior.label(), "d": d},
    )
    return 0


def cmd_simulate(parser, args) -> int:
    seed = RngSeed(args.seed)
    spec = _output_spec(args)
    # checked for every subkind, though bbp (an exact eigensolve) uses none of them
    settings = PowerIterationSettings(args.restarts, args.max_iters, args.tol)

    if args.subkind == "bbp":
        summary = montecarlo.bbp_reference_experiment(args.n, args.snr, args.trials, seed)
        columns = [
            "n", "lambda", "trials", "mean_top_eigenvalue", "predicted_top_eigenvalue",
            "mean_alignment_sq", "predicted_alignment_sq",
        ]
        write_table(columns, [_row(summary)], spec, {"command": "simulate_bbp"})
        return 0

    prior = _prior_from_args(parser, args)
    d = _parse_order(args.d)

    if args.subkind == "tails":
        t_grid = (
            _parse_lambda_list(args.tgrid, "--tgrid")
            if args.tgrid is not None
            else [round(0.05 * i, 2) for i in range(13)]
        )
        rows = montecarlo.overlap_tail_experiment(prior, args.n, args.trials, t_grid, seed)
        write_table(
            ["t", "empirical_tail", "empirical_rate", "rate_value", "exact_tail", "exact_rate"],
            [_row(r) for r in rows], spec,
            {"command": "simulate_tails", "prior": prior.label(), "n": args.n},
        )
        return 0

    if args.subkind == "norms":
        estimates = montecarlo.injective_norm_experiment(
            prior, args.n, d, args.snr, args.trials, seed, settings
        )
        write_table(
            ["trial", "estimate", "converged"],
            [_row(est, trial=k) for k, est in enumerate(estimates)], spec,
            {"command": "simulate_norms", "prior": prior.label(), "n": args.n, "d": d},
        )
        return 0

    _check_writable(args.records)  # detect and recover write it; before any trial runs
    config = ExperimentConfig(
        prior=prior, n=args.n, d=d, snr=args.snr, trials=args.trials,
        seed=seed, test=args.test, epsilon=args.epsilon, power_iter=settings,
    )
    columns = ["test", "n", "d", "lambda", "trials"]
    if args.subkind == "detect":
        result = montecarlo.detection_experiment(config)
        columns += [
            "epsilon", "threshold", "accuracy", "type_i_rate", "type_ii_rate", "mean_abs_overlap",
        ]
    else:
        result = montecarlo.recovery_experiment(config)
        columns += ["mean_abs_overlap", "mean_overlap_pow_d"]
    if args.records:  # first, so that an unwritable path leaves stdout empty
        # vars, not _row: a recover arm's decision=None stays an empty cell
        write_table(
            [f.name for f in fields(TrialRecord)], [vars(r) for r in result.records],
            OutputSpec(format="csv", path=args.records, precision=args.precision),
        )
    # the injective test thresholds at the arms' midpoint; no margin applies
    epsilon = config.threshold_margin if args.test == "mle" else math.nan
    row = _row(config, result, epsilon=epsilon)
    write_table(columns, [row], spec, {"command": f"simulate_{args.subkind}"})
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    dispatch = {
        "thresholds": cmd_thresholds,
        "ratefn": cmd_ratefn,
        "replica": cmd_replica,
        "simulate": cmd_simulate,
    }
    try:
        check_threads(args.threads)  # before any command, though none uses it
        _output_spec(args)  # likewise --format and --precision, before any row is computed
        _check_writable(args.out)  # and the output path
        return dispatch[args.command](parser, args)
    except SystemExit as exc:  # parser.error inside a command
        return int(exc.code or 0)
    # input the library rejects or cannot solve, or an --out/--records path it cannot open
    except (ValueError, BracketError, OSError) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
