"""Output checks: each task is judged from its own CSV output.

A check returns ``None`` when the output is right and a one-line reason
otherwise.  Rows whose inputs appear in the reference tables must match
them to 1e-9 relative, excluding ``residual``.

The reference tables in ``reference/`` are frozen copies of the committed
``results/*.csv``, taken when the benchmark was defined.  They live here
rather than being read from ``results/`` for two reasons: the root
``.gitignore`` names ``results/``, so a checkout that leaves out ignored
paths has no such directory; and a later change that rewrites ``results/``
must not move the yardstick its own outputs are checked against.
"""

from __future__ import annotations

import csv
import io
import math
import pathlib

REFERENCE_DIR = pathlib.Path(__file__).resolve().parent / "reference"
REL_TOL = 1e-9
PRECISION = 9  # the CLI's default --precision

COLUMNS = {
    "detect": ["test", "n", "d", "lambda", "trials", "epsilon", "threshold", "accuracy",
               "type_i_rate", "type_ii_rate", "mean_abs_overlap"],
    "recover": ["test", "n", "d", "lambda", "trials", "mean_abs_overlap", "mean_overlap_pow_d"],
    "tails": ["t", "empirical_tail", "empirical_rate", "rate_value", "exact_tail", "exact_rate"],
    "norms": ["trial", "estimate", "converged"],
    "bbp": ["n", "lambda", "trials", "mean_top_eigenvalue", "predicted_top_eigenvalue",
            "mean_alignment_sq", "predicted_alignment_sq"],
}


def _printed(x: float) -> str:
    return format(x, f".{PRECISION}g")


def _read_csv(path: pathlib.Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def load_reference() -> dict:
    ref = {}
    for prior in ("spherical", "rademacher"):
        ref[("thresholds", prior)] = {
            int(r["d"]): r for r in _read_csv(REFERENCE_DIR / f"thresholds_{prior}.csv")
        }
        ref[("replica", prior)] = {
            int(r["d"]): r["lambda2"]
            for r in _read_csv(REFERENCE_DIR / f"replica_thresholds_{prior}.csv")
        }
    ref["sparse_d2"] = [
        (float(r["rho"]), r) for r in _read_csv(REFERENCE_DIR / "sparse_pca_d2.csv")
    ]
    return ref


def _options(argv) -> dict:
    opts = {}
    for i, tok in enumerate(argv):
        if tok.startswith("--"):
            nxt = argv[i + 1] if i + 1 < len(argv) else None
            opts[tok[2:]] = nxt if nxt is not None and not nxt.startswith("--") else True
    return opts


def _num(text: str) -> float:
    return float(text)  # accepts NaN / inf / -inf as the CLI spells them


def _same(a: str, b: str) -> bool:
    x, y = _num(a), _num(b)
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    if math.isinf(x) or math.isinf(y):
        return x == y
    return abs(x - y) <= REL_TOL * max(abs(x), abs(y))


def _in_unit(row: dict, *names: str) -> str | None:
    for name in names:
        v = _num(row[name])
        if not 0.0 <= v <= 1.0:
            return f"{name}={row[name]} outside [0, 1]"
    return None


def _compare(row: dict, ref_row: dict, what: str) -> str | None:
    for col, expected in ref_row.items():
        if col == "residual" or col not in row:
            continue
        if not _same(row[col], expected):
            return f"{col}={row[col]} differs from {what} ({expected})"
    return None


def _check_thresholds(opts: dict, rows: list[dict], ref: dict) -> str | None:
    if len(rows) != 1:
        return f"expected one row, got {len(rows)}"
    row = rows[0]
    d = int(opts["d"])
    if int(row["d"]) != d:
        return f"row d={row['d']} != --d {d}"
    lower, upper = _num(row["lambda_lower"]), _num(row["lambda_upper"])
    prior = opts["prior"]
    if not lower <= upper + 1e-9:
        return f"lambda_lower {lower} > lambda_upper {upper}"
    if prior == "spherical" and d >= 3:
        chain = [lower, _num(row["replica"]) if "replica" in row else None, upper, _num(row["mu_d"])]
        chain = [v for v in chain if v is not None]
        if not all(a < b for a, b in zip(chain, chain[1:])):
            return f"spherical ordering lambda_lower < replica < lambda_upper < mu_d violated: {chain}"
    if prior == "rademacher" and d >= 3:
        if row["lambda_upper"] != _printed(2.0 * math.sqrt(math.log(2.0))):
            return f"rademacher lambda_upper {row['lambda_upper']} != 2 sqrt(log 2)"
    if prior in ("spherical", "rademacher"):
        ref_row = ref[("thresholds", prior)].get(d)
        if ref_row is not None:
            bad = _compare(row, ref_row, f"results/thresholds_{prior}.csv")
            if bad:
                return bad
        lambda2 = ref[("replica", prior)].get(d)
        if lambda2 is not None and "replica" in row and not _same(row["replica"], lambda2):
            return f"replica={row['replica']} differs from results/replica_thresholds_{prior}.csv ({lambda2})"
    if prior == "sparse":
        rho = float(opts["rho"])
        h = -rho * math.log(rho) - (1 - rho) * math.log1p(-rho) if rho < 1.0 else 0.0
        if not _same(row["lambda_upper"], _printed(2.0 * math.sqrt(h + rho * math.log(2.0)))):
            return f"sparse lambda_upper {row['lambda_upper']} != 2 sqrt(H(rho) + rho log 2)"
        if d == 2:
            for ref_rho, ref_row in ref["sparse_d2"]:
                if abs(ref_rho - rho) <= 1e-8 * rho:
                    return _compare(row, ref_row, "results/sparse_pca_d2.csv")
    return None


def _check_ratefn(opts: dict, rows: list[dict]) -> str | None:
    if len(rows) != int(opts["grid"]):
        return f"expected {opts['grid']} rows, got {len(rows)}"
    ts = [_num(r["t"]) for r in rows]
    if ts != sorted(ts) or not 0.0 <= ts[0] <= ts[-1] <= 1.0:
        return "t column not ascending in [0, 1]"
    for r in rows:
        if not _num(r["rate"]) >= 0.0:
            return f"rate {r['rate']} < 0 at t={r['t']}"
        bad = _in_unit(r, "exact_tail")
        if bad:
            return bad
        if not _num(r["exact_rate"]) >= 0.0:
            return f"exact_rate {r['exact_rate']} < 0 at t={r['t']}"
    return None


def _check_simulate(kind: str, opts: dict, rows: list[dict]) -> str | None:
    if kind == "norms":
        if len(rows) != int(opts["trials"]):
            return f"expected {opts['trials']} rows, got {len(rows)}"
        for r in rows:
            est = _num(r["estimate"])
            if not (math.isfinite(est) and est > 0.0):
                return f"norm estimate {r['estimate']} not finite and positive"
            if r["converged"] not in ("0", "1"):
                return f"converged={r['converged']} not a flag"
        return None
    if len(rows) < 1:
        return "no rows"
    if kind == "tails":
        for r in rows:
            bad = _in_unit(r, "empirical_tail", "exact_tail")
            if bad:
                return bad
            if not _num(r["rate_value"]) >= 0.0:
                return f"rate_value {r['rate_value']} < 0"
        return None
    row = rows[0]
    if kind == "bbp":
        if not math.isfinite(_num(row["mean_top_eigenvalue"])):
            return "mean_top_eigenvalue not finite"
        return _in_unit(row, "mean_alignment_sq", "predicted_alignment_sq")
    if kind == "detect":
        bad = _in_unit(row, "accuracy", "type_i_rate", "type_ii_rate")
        if bad:
            return bad
    if not _num(row["mean_abs_overlap"]) <= 1.0 + 1e-9:
        return f"|overlap| mean {row['mean_abs_overlap']} > 1"
    if "mean_overlap_pow_d" in row and not abs(_num(row["mean_overlap_pow_d"])) <= 1.0 + 1e-9:
        return f"|mean overlap^d| {row['mean_overlap_pow_d']} > 1"
    return None


def expected_columns(argv) -> list[str]:
    opts = _options(argv)
    if argv[0] == "thresholds":
        cols = ["d", "lambda_lower", "lambda_upper", "mu_d"]
        if opts.get("replica"):
            cols.append("replica")
        if opts.get("asymptotics"):
            cols += ["asymptotic_lower", "asymptotic_upper"]
        return cols
    if argv[0] == "ratefn":
        return ["t", "rate"] + (["exact_tail", "exact_rate"] if "n" in opts else [])
    return COLUMNS[argv[1]]


def check_output(argv, code: int, stdout: str, ref: dict) -> str | None:
    """None when the task's output is right, else the reason it is not."""
    if code != 0:
        return f"exit code {code}"
    reader = csv.reader(io.StringIO(stdout))
    try:
        header = next(reader)
    except StopIteration:
        return "empty output"
    columns = expected_columns(argv)
    if header != columns:
        return f"columns {header} != expected {columns}"
    rows = [dict(zip(header, values)) for values in reader]
    try:
        for r in rows:
            for col in columns:
                if col != "test":
                    _num(r[col])
        opts = _options(argv)
        if argv[0] == "thresholds":
            return _check_thresholds(opts, rows, ref)
        if argv[0] == "ratefn":
            return _check_ratefn(opts, rows)
        return _check_simulate(argv[1], opts, rows)
    except (KeyError, ValueError) as exc:
        return f"malformed output: {exc!r}"
