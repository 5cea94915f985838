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

Each command, and each ``simulate`` kind, takes only the flags it reads
(``_COMMANDS``, drawn from the one flag table ``_FLAGS``).  Each command's
handler computes its table and returns it as ``(columns, rows, meta)``;
``main`` checks ``--format``, ``--precision`` and ``--out`` before any row is
computed and writes the table once.  Every command is
deterministic given its flags and seed; output ordering is fixed.  Every
command runs on the caller's thread; ``--threads`` is checked but changes no
work.  Exit codes report execution health only (0 = completed, 2 = rejected
input, printed as one ``spiked-tensor: error: ...`` line, after argparse's
usage line for a malformed flag), never statistical outcomes.
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


def _prior_from_args(args) -> SpikePrior:
    """SpikePrior checks --rho: required for sparse, rejected for the others."""
    return SpikePrior({"sparse": "sparse_rademacher"}.get(args.prior, args.prior), args.rho)


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


def cmd_thresholds(args) -> tuple[list[str], list[dict], dict]:
    prior = _prior_from_args(args)
    ds = _parse_d_range(args.d)
    reports = [thresholds.threshold_report(prior, d, include_replica=args.replica) for d in ds]
    columns = ["d", "lambda_lower", "lambda_upper", "mu_d"]
    if args.replica:
        columns.append("replica")
    if args.asymptotics:
        columns += ["asymptotic_lower", "asymptotic_upper"]
    rows = [_row(rep) for rep in reports]
    return columns, rows, {"command": "thresholds", "prior": prior.label()}


def cmd_ratefn(args) -> tuple[list[str], list[dict], dict]:
    prior = _prior_from_args(args)
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
    return columns, rows, {"command": "ratefn", "prior": prior.label()}


def cmd_replica(args) -> tuple[list[str], list[dict], dict]:
    prior = SpikePrior(args.prior)
    ds = _parse_d_range(args.d)
    if args.thresholds:
        columns = ["d", "lambda1", "lambda2"]
        rows = [dict(zip(columns, (d, *replica.replica_thresholds(prior, d)))) for d in ds]
        return columns, rows, {"command": "replica_thresholds", "prior": prior.label()}
    if args.snr is None:
        raise ValueError("replica branch tables require --lambda (or use --thresholds)")
    if len(ds) != 1:
        raise ValueError("branch tables take a single --d")
    d = ds[0]
    rows = [
        _row(s)
        for snr in _parse_lambda_list(args.snr, "--lambda")
        for s in replica.fixed_points(prior, d, snr)
    ]
    return (["lambda", "branch", "q", "mu", "free_energy", "residual"], rows,
            {"command": "replica", "prior": prior.label(), "d": d})


def cmd_simulate(args) -> tuple[list[str], list[dict], dict]:
    seed = RngSeed(args.seed)

    # bbp is the d = 2 spherical recover run: the norm is the top eigenvalue, overlap^2 the alignment
    if args.subkind == "bbp":
        config = ExperimentConfig(SpikePrior.spherical(), args.n, 2, args.snr, args.trials, seed,
                                  test="injective_norm")
        result = montecarlo.recovery_experiment(config)
        eigenvalue, alignment_sq = montecarlo.bbp_prediction(args.snr)
        row = _row(config, mean_top_eigenvalue=float(np.mean([r.statistic for r in result.records])),
                   mean_alignment_sq=result.mean_overlap_pow_d,
                   predicted_top_eigenvalue=eigenvalue, predicted_alignment_sq=alignment_sq)
        columns = ["n", "lambda", "trials", "mean_top_eigenvalue", "predicted_top_eigenvalue",
                   "mean_alignment_sq", "predicted_alignment_sq"]
        return columns, [row], {"command": "simulate_bbp"}

    prior = _prior_from_args(args)

    if args.subkind == "tails":
        t_grid = _parse_lambda_list(args.tgrid, "--tgrid")
        rows = montecarlo.overlap_tail_experiment(prior, args.n, args.trials, t_grid, seed)
        return (["t", "empirical_tail", "empirical_rate", "rate_value", "exact_tail", "exact_rate"],
                [_row(r) for r in rows],
                {"command": "simulate_tails", "prior": prior.label(), "n": args.n})

    settings = PowerIterationSettings(args.restarts, args.max_iters)
    d = _parse_order(args.d)
    _check_writable(getattr(args, "records", None))  # detect and recover's; before any trial runs
    # norms reads no --test (it runs the one statistic), recover and norms no --epsilon
    config = ExperimentConfig(
        prior=prior, n=args.n, d=d, snr=args.snr, trials=args.trials, seed=seed,
        test=getattr(args, "test", "injective_norm"), epsilon=getattr(args, "epsilon", None),
        power_iter=settings,
    )

    if args.subkind == "norms":
        estimates = montecarlo.injective_norm_experiment(config)
        return (["trial", "estimate", "converged"],
                [_row(est, trial=k) for k, est in enumerate(estimates)],
                {"command": "simulate_norms", "prior": prior.label(), "n": args.n, "d": d})

    columns = ["test", "n", "d", "lambda", "trials"]
    if args.subkind == "detect":
        result = montecarlo.detection_experiment(config)
        columns += [
            "epsilon", "threshold", "accuracy", "type_i_rate", "type_ii_rate", "mean_abs_overlap",
        ]
    else:
        result = montecarlo.recovery_experiment(config)
        columns += ["mean_abs_overlap", "mean_overlap_pow_d"]
    if args.records:  # before main writes the table, so an unwritable path leaves stdout empty
        # vars, not _row: a recover arm's decision=None stays an empty cell
        write_table(
            [f.name for f in fields(TrialRecord)], [vars(r) for r in result.records],
            OutputSpec(format="csv", path=args.records, precision=args.precision),
        )
    # the injective test thresholds at the arms' midpoint; no margin applies
    epsilon = config.threshold_margin if args.test == "mle" else math.nan
    return columns, [_row(config, result, epsilon=epsilon)], {"command": f"simulate_{args.subkind}"}


# Every flag, declared once.  Where a command reads a flag differently
# (ratefn's --n, replica's --prior and --lambda, simulate's --d), it lists
# the flag with keywords of its own.
_FLAGS = {
    "--prior": dict(choices=["spherical", "rademacher", "sparse"], required=True),
    "--rho": dict(type=float, default=None, help="sparsity for --prior sparse"),
    "--seed": dict(type=int, default=0),
    "--d": dict(required=True, help="single order or range a..b"),
    "--replica": dict(action="store_true", help="add the replica prediction column"),
    "--asymptotics": dict(action="store_true", help="add asymptotic columns"),
    "--grid": dict(type=int, default=100, help="number of t points, 2..10^5"),
    "--tmax": dict(type=float, default=None),
    "--thresholds": dict(action="store_true", help="emit (lambda1, lambda2) per d"),
    "--n": dict(type=int, default=14),
    "--lambda": dict(dest="snr", type=float, default=0.0),
    "--trials": dict(type=int, default=100),
    "--test": dict(choices=list(montecarlo.TESTS), default="mle"),
    "--epsilon": dict(type=float, default=None),
    "--tgrid": dict(default="0,0.05,0.1,0.15,0.2,0.25,0.3,0.35,0.4,0.45,0.5,0.55,0.6",
                    help="comma list of t values"),
    "--restarts": dict(type=int, default=20),
    "--max-iters": dict(type=int, default=500),
    "--records": dict(default=None, help="write per-trial CSV to this path"),
    "--threads": dict(type=int, default=1, help=f"accepted, 1..{MAX_THREADS}; changes no work"),
    "--out": dict(default=None, help="output path (default stdout)"),
    "--format": dict(choices=["csv", "json"], default="csv"),
    "--precision": dict(type=int, default=9),
}
_ORDER = ("--d", dict(default="3", help="one order"))
_POWER = ("--restarts", "--max-iters")
_EXPERIMENT = ("--prior", "--rho", "--seed", "--n", _ORDER, "--lambda", "--trials", "--test")
# the flags each command reads, besides the four that every command takes
_COMMANDS = {
    "thresholds": ("--prior", "--rho", "--d", "--replica", "--asymptotics"),
    "ratefn": ("--prior", "--rho", "--grid", "--tmax",
               ("--n", dict(type=int, default=None, help="add exact finite-n tail columns"))),
    "replica": (("--prior", dict(choices=["spherical", "rademacher"], required=True)), "--d",
                ("--lambda", dict(dest="snr", default=None, help="snr value or comma list")),
                "--thresholds"),
    "simulate detect": (*_EXPERIMENT, "--epsilon", *_POWER, "--records"),
    "simulate recover": (*_EXPERIMENT, *_POWER, "--records"),
    "simulate tails": ("--prior", "--rho", "--seed", "--n", "--trials", "--tgrid"),
    "simulate norms": ("--prior", "--rho", "--seed", "--n", _ORDER, "--lambda", "--trials",
                       *_POWER),
    "simulate bbp": ("--seed", "--n", "--lambda", "--trials"),
}
# each command's handler; cmd_simulate serves every simulate kind
_HANDLERS = {"thresholds": cmd_thresholds, "ratefn": cmd_ratefn, "replica": cmd_replica,
             "simulate": cmd_simulate}
_HELP = {
    "thresholds": "per-d threshold bound table", "ratefn": "(t, f(t)) table for a prior",
    "replica": "replica fixed points / thresholds", "simulate": "seeded Monte Carlo experiments",
    "simulate detect": "accuracy of a spike detection test",
    "simulate recover": "overlap of the estimated spike with the planted one",
    "simulate tails": "empirical overlap tails against the rate function",
    "simulate norms": "injective norm: ascent at d >= 3, eigensolve at d = 2",
    "simulate bbp": "d = 2 top eigenvalue against the BBP prediction",
}


# Built once per process: building takes milliseconds (each add_argument makes a
# HelpFormatter, which asks for the terminal size), and parse_args leaves it as it was.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spiked-tensor",
        description="Phase-transition bounds and Monte Carlo checks for spiked Gaussian tensors",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = {name: sub.add_parser(name, help=_HELP[name]) for name in _HANDLERS}
    kinds = parsers["simulate"].add_subparsers(dest="subkind", required=True)
    for name, flags in _COMMANDS.items():
        command, _, kind = name.partition(" ")
        p = kinds.add_parser(kind, help=_HELP[name]) if kind else parsers[command]
        p.set_defaults(parser=p)  # reports a flag the command does not read, with its usage
        for flag in flags + ("--threads", "--out", "--format", "--precision"):
            flag, keywords = (flag, _FLAGS[flag]) if isinstance(flag, str) else flag
            p.add_argument(flag, **keywords)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args, unread = parser.parse_known_args(argv)
        if unread:
            args.parser.error(f"unrecognized arguments: {' '.join(unread)}")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        check_threads(args.threads)  # before any command, though none uses it
        # likewise --format and --precision, before any row is computed
        spec = OutputSpec(format=args.format, path=args.out, precision=args.precision)
        _check_writable(args.out)  # and the output path
        columns, rows, meta = _HANDLERS[args.command](args)
        write_table(columns, rows, spec, meta)
        return 0
    # input the library rejects or cannot solve, or an --out/--records path it cannot open
    except (ValueError, BracketError, OSError) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
