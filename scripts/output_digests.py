#!/usr/bin/env python3
"""Digests of the CLI output for a fixed list of commands.

Runs each argv below in-process through ``spiked_tensor.cli.main`` and
prints one line per argv: the exit code, the sha256 of stdout and, where
the command writes a ``--records`` file, the sha256 of that file (each cut
to its first 16 hex digits).  Two
trees give the same output for these commands exactly when they print the
same lines.  To compare against another checkout, run this script twice
with ``PYTHONPATH`` pointing at each checkout's ``src/`` and diff the
outputs.  Each seeded ``simulate`` argv also runs at ``--threads 2``; the
last line says whether those digests equal the ``--threads 1`` ones.  The
``thresholds`` and ``replica`` argv and the ``SIMULATE_JSON`` ones (one per
``simulate`` kind) also run with ``--format json``, which pins the JSON
cells of every table the CLI writes.
Takes about 9 s on a 2-core x86 machine at one BLAS thread.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile

from spiked_tensor.cli import main

RECORDS = "{records}"  # replaced by a temporary path at run time

THRESHOLDS = [
    ["thresholds", "--prior", "spherical", "--d", "2..30", "--replica", "--asymptotics"],
    ["thresholds", "--prior", "spherical", "--d", "31..200"],
    ["thresholds", "--prior", "spherical", "--d", "10000"],
    ["thresholds", "--prior", "spherical", "--d", "1000000"],
    ["thresholds", "--prior", "rademacher", "--d", "2..12", "--replica", "--asymptotics"],
    ["thresholds", "--prior", "rademacher", "--d", "13..60"],
    ["thresholds", "--prior", "rademacher", "--d", "61..200"],
    ["thresholds", "--prior", "rademacher", "--d", "1000000"],
    # 17 digits guard the bits of the spherical tangency root, and of mu_d and
    # the upper bound's root on the spiked-norm branch up to d = 10^6
    ["thresholds", "--prior", "spherical", "--d", "3..30", "--precision", "17"],
    ["thresholds", "--prior", "spherical", "--d", "190..200", "--precision", "17"],
    ["thresholds", "--prior", "spherical", "--d", "1000000", "--precision", "17"],
    # and of the Rademacher tangency root, on every d where one is solved
    ["thresholds", "--prior", "rademacher", "--d", "3..72", "--precision", "17"],
    ["thresholds", "--prior", "sparse", "--rho", "0.3", "--d", "2..3", "--asymptotics"],
    # a 9-digit print of a figure-grid rho; not a frozen row (see NOISE_RHOS)
    ["thresholds", "--prior", "sparse", "--rho", "0.144543977", "--d", "2"],
    ["thresholds", "--prior", "spherical", "--d", "40..42", "--replica"],
    ["thresholds", "--prior", "rademacher", "--d", "13..16", "--replica"],
]
# The repr of each rho in (0.14, 1) on scripts/figure_sparse_pca.py's grid.  There
# the d = 2 lower bound is set by cancellation noise in the sparse rate, so
# these rows move under any change to that arithmetic; they guard the frozen
# rows of perfbench/reference/sparse_pca_d2.csv.
NOISE_RHOS = ["0.1445439770745928", "0.26505337179010824", "0.4860340175990221",
              "0.6666666666666666", "0.8912509381337456"]
THRESHOLDS += [["thresholds", "--prior", "sparse", "--d", "2", "--rho", rho] for rho in NOISE_RHOS]
# 17 digits guard the bits of the sparse rate's zeta search at a tiny rho
THRESHOLDS += [["thresholds", "--prior", "sparse", "--rho", "0.0001", "--d", "2..4",
                "--precision", "17"]]
# 17 digits guard the bits of the entropies inside the sparse rate at a mid rho
THRESHOLDS += [["thresholds", "--prior", "sparse", "--rho", "0.3", "--d", "2..4",
                "--precision", "17"]]

REPLICA = [
    ["replica", "--prior", "spherical", "--d", "3", "--lambda", "1.5,2,2.5,3,5"],
    ["replica", "--prior", "spherical", "--d", "2", "--lambda", "0.5,1.5"],
    ["replica", "--prior", "rademacher", "--d", "3", "--lambda", "1,1.5,1.7,2,3"],
    ["replica", "--prior", "rademacher", "--d", "2", "--lambda", "0.5,1.5"],
    ["replica", "--prior", "spherical", "--d", "2..12", "--thresholds"],
    ["replica", "--prior", "rademacher", "--d", "2..5", "--thresholds"],
    ["replica", "--prior", "spherical", "--d", "38..42", "--thresholds"],
    ["replica", "--prior", "spherical", "--d", "30000", "--thresholds"],  # exits 2
    ["replica", "--prior", "rademacher", "--d", "6..8", "--thresholds"],
    ["replica", "--prior", "rademacher", "--d", "10", "--lambda", "1.2,1.6,3"],
    ["replica", "--prior", "spherical", "--d", "40", "--lambda", "3.2,3.5"],
    ["replica", "--prior", "sparse", "--rho", "0.2", "--d", "3", "--lambda", "1.0"],  # exits 2
]
# Rademacher mu scans at 17 digits: the largest orders over the whole snr
# range, and d = 2 either side of snr = 1/sqrt(2), where phi's screen starts
# to keep points of the small-mu end of the grid
RADEMACHER_LAMBDAS = "1e-6,1e-4,0.01,0.1,0.5,1,1.5,1.7,2,10,100,1e4,1e6"
REPLICA += [
    ["replica", "--prior", "rademacher", "--d", d, "--lambda", lam, "--precision", "17"]
    for d, lam in (("1000", RADEMACHER_LAMBDAS), ("1000000", RADEMACHER_LAMBDAS),
                   ("2", "0.70710678,0.7071067811861,0.7071067811866,0.70710679"))
]
# spherical branch tables the q scan cannot resolve (both roots in its last
# cell; the low root below its first point) are refused: each exits 2
REPLICA += [
    ["replica", "--prior", "spherical", "--d", "1000000", "--lambda", "3,10,100"],
    ["replica", "--prior", "spherical", "--d", "3", "--lambda", "1e5"],
]
# replica thresholds at 17 digits guard the last bits of lambda1 and lambda2
REPLICA += [["replica", "--prior", "spherical", "--d", d, "--thresholds", "--precision", "17"]
            for d in ("3..60", "100", "1000", "10000")]
REPLICA += [["replica", "--prior", "rademacher", "--d", "3..100", "--thresholds", "--precision", "17"]]
# a Rademacher branch table whose low root lies below the mu grid's first
# point is refused: it exits 2
REPLICA += [["replica", "--prior", "rademacher", "--d", "3", "--lambda", "1e4"]]
# high branches where q = 1 to double precision: mu = snr^2 d / 2 and the free
# energy -snr/2 at 9 digits only while the quadrature weights sum to 1
REPLICA += [["replica", "--prior", "rademacher", "--d", "1000000", "--lambda", "10,100,1000"]]

RATEFN = [
    ["ratefn", "--prior", "rademacher", "--n", "60", "--grid", "40"],
    ["ratefn", "--prior", "sparse", "--rho", "0.3", "--n", "60", "--grid", "12"],
    ["ratefn", "--prior", "spherical", "--n", "30", "--grid", "40"],
    ["ratefn", "--prior", "rademacher", "--n", "201", "--grid", "3"],
    ["ratefn", "--prior", "sparse", "--rho", "0.5", "--n", "200", "--grid", "2000"],
    ["ratefn", "--prior", "sparse", "--rho", "0.0001", "--grid", "2000", "--precision", "17"],
    ["ratefn", "--prior", "sparse", "--rho", "0.32", "--grid", "3"],  # f(0) = 0 exactly
    # 17 digits guard the bits of the Rademacher rate's logarithms
    ["ratefn", "--prior", "rademacher", "--grid", "2000", "--precision", "17"],
]

# one argv per simulate kind; each also runs with --format json (SIMULATE_JSON)
DETECT_RECORDS = ["simulate", "detect", "--prior", "rademacher", "--test", "mle", "--n", "10",
                  "--d", "3", "--lambda", "3", "--trials", "16", "--seed", "7",
                  "--records", RECORDS]
BBP = ["simulate", "bbp", "--n", "150", "--lambda", "2", "--trials", "3", "--seed", "7"]
NORMS = ["simulate", "norms", "--prior", "spherical", "--n", "12", "--d", "3", "--trials", "3",
         "--seed", "4"]
TAILS = ["simulate", "tails", "--prior", "sparse", "--rho", "0.3", "--n", "20", "--trials", "5000",
         "--seed", "1", "--tgrid", "0,0.25,0.5"]
RECOVER_RECORDS = ["simulate", "recover", "--prior", "rademacher", "--test", "mle", "--n", "10",
                   "--d", "4", "--lambda", "2", "--trials", "8", "--seed", "11",
                   "--records", RECORDS]

SIMULATE = [
    DETECT_RECORDS,
    ["simulate", "detect", "--prior", "sparse", "--rho", "0.3", "--test", "mle", "--n", "12",
     "--d", "3", "--lambda", "2.5", "--trials", "8", "--seed", "3"],
    ["simulate", "detect", "--prior", "spherical", "--test", "injective_norm", "--n", "10",
     "--d", "3", "--lambda", "3", "--trials", "3", "--seed", "5", "--records", RECORDS],
    RECOVER_RECORDS,
    ["simulate", "recover", "--prior", "spherical", "--test", "injective_norm", "--n", "10",
     "--d", "3", "--lambda", "3", "--trials", "3", "--seed", "2"],
    NORMS,
    ["simulate", "norms", "--prior", "rademacher", "--n", "12", "--d", "3", "--lambda", "3",
     "--trials", "3", "--seed", "4"],
    ["simulate", "tails", "--prior", "rademacher", "--n", "20", "--trials", "20000", "--seed", "1"],
    # the rate_value column at 17 digits
    ["simulate", "tails", "--prior", "rademacher", "--n", "60", "--trials", "2000", "--seed", "1",
     "--precision", "17"],
    TAILS,
    ["simulate", "tails", "--prior", "spherical", "--n", "5", "--trials", "5000", "--seed", "1"],
    BBP,
    ["simulate", "tails", "--prior", "sparse", "--rho", "1", "--n", "12", "--trials", "2000",
     "--seed", "1"],
    ["simulate", "norms", "--prior", "spherical", "--n", "10", "--d", "3", "--lambda", "2e6",
     "--trials", "1", "--seed", "4"],
    ["simulate", "recover", "--prior", "rademacher", "--test", "mle", "--n", "8", "--d", "6",
     "--lambda", "2", "--trials", "4", "--seed", "6", "--records", RECORDS],
    ["simulate", "detect", "--prior", "sparse", "--rho", "0.1", "--test", "mle", "--n", "12",
     "--d", "4", "--lambda", "2", "--trials", "8", "--seed", "9", "--records", RECORDS],
    ["simulate", "detect", "--prior", "rademacher", "--test", "mle", "--n", "1", "--d", "3",
     "--lambda", "1", "--trials", "8", "--seed", "2", "--records", RECORDS],
    ["simulate", "norms", "--prior", "sparse", "--rho", "0.3", "--n", "10", "--d", "4",
     "--lambda", "2", "--trials", "2"],
    ["simulate", "norms", "--prior", "spherical", "--n", "3", "--d", "12", "--lambda", "2",
     "--trials", "1"],
    ["simulate", "bbp", "--n", "400", "--lambda", "0.5", "--trials", "2"],
    ["simulate", "recover", "--prior", "spherical", "--test", "injective_norm", "--n", "12",
     "--d", "4", "--lambda", "2", "--trials", "8", "--seed", "3", "--records", RECORDS],
    ["simulate", "recover", "--prior", "rademacher", "--n", "6", "--d", "3", "--lambda", "-1",
     "--trials", "2"],  # exits 2
    # trial 1 ends on the Newton finish; power steps alone leave it unconverged
    ["simulate", "norms", "--prior", "spherical", "--n", "24", "--d", "3", "--trials", "3",
     "--seed", "3"],
    # Newton steps through M = T x^(d-2) of order 3
    ["simulate", "norms", "--prior", "spherical", "--n", "10", "--d", "5", "--trials", "2",
     "--seed", "1"],
    # at d = 2 the estimate is the top eigenpair, with no ascent
    ["simulate", "norms", "--prior", "spherical", "--n", "40", "--d", "2", "--trials", "3",
     "--seed", "3"],
    ["simulate", "detect", "--prior", "spherical", "--test", "injective_norm", "--n", "30",
     "--d", "2", "--lambda", "2", "--trials", "4", "--seed", "5", "--records", RECORDS],
    # tails in 10,000-pair chunks: three chunks, the last partial, at odd k = 33
    ["simulate", "tails", "--prior", "rademacher", "--n", "33", "--trials", "25000", "--seed", "4"],
    # two chunks whose sign draws follow each chunk's support draw
    ["simulate", "tails", "--prior", "sparse", "--rho", "0.3", "--n", "45", "--trials", "12000",
     "--seed", "2"],
    # the trials of BBP's run, through recover: bbp is this run's d = 2 case
    ["simulate", "recover", "--prior", "spherical", "--d", "2", "--test", "injective_norm",
     "--n", "150", "--lambda", "2", "--trials", "3", "--seed", "7", "--records", RECORDS],
    # on the prediction's boundary: snr > 1 is strict, so lambda = 1 predicts 2 and 0
    ["simulate", "bbp", "--n", "60", "--lambda", "1", "--trials", "2", "--seed", "3"],
    # a step budget that some start runs out of (an unconverged row)
    ["simulate", "norms", "--prior", "spherical", "--n", "20", "--d", "3", "--trials", "2",
     "--seed", "5", "--restarts", "3", "--max-iters", "40"],
    ["simulate", "detect", "--prior", "spherical", "--test", "injective_norm", "--n", "12",
     "--d", "4", "--lambda", "3", "--trials", "2", "--seed", "6", "--restarts", "5",
     "--max-iters", "200", "--records", RECORDS],
    # the no-spike null run: norms at lambda = 0 draws no spike, so an empty support passes
    ["simulate", "norms", "--prior", "sparse", "--rho", "0.01", "--n", "10", "--d", "3",
     "--lambda", "0", "--trials", "2", "--seed", "1"],
    ["simulate", "recover", "--prior", "rademacher", "--test", "mle", "--n", "10", "--d", "3",
     "--lambda", "0", "--trials", "4", "--seed", "2", "--records", RECORDS],
]

SIMULATE_JSON = [DETECT_RECORDS, BBP, NORMS, TAILS, RECOVER_RECORDS]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def digest(argv: list[str], tmpdir: str) -> str:
    records = os.path.join(tmpdir, "records.csv")
    if os.path.exists(records):
        os.remove(records)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([records if a == RECORDS else a for a in argv])
    line = f"{code} {_sha(out.getvalue().encode())}"
    if os.path.exists(records):
        with open(records, "rb") as fh:
            line += f" records={_sha(fh.read())}"
    return line


def run() -> bool:
    as_json = [argv + ["--format", "json"] for argv in THRESHOLDS + REPLICA]
    threaded = [argv + ["--threads", "2"] for argv in SIMULATE]
    simulate_json = [argv + ["--format", "json"] for argv in SIMULATE_JSON]
    lines = {}
    with tempfile.TemporaryDirectory() as tmpdir:
        for argv in THRESHOLDS + as_json + REPLICA + RATEFN + SIMULATE + threaded + simulate_json:
            lines[tuple(argv)] = digest(argv, tmpdir)
            print(f"{lines[tuple(argv)]}  {' '.join(argv)}", flush=True)
    same = all(lines[tuple(a)] == lines[tuple(t)] for a, t in zip(SIMULATE, threaded))
    print("threads 1 vs 2:", "equal" if same else "DIFFER")
    return same


if __name__ == "__main__":
    sys.exit(0 if run() else 1)
