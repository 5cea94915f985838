"""The frozen benchmark rows still come out of the CLI.

perfbench judges its ``thresholds`` tasks against the reference tables in
``perfbench/reference/`` at 1e-9 relative.  This runs the CLI on every
(prior, d) those tables hold, with ``--replica --asymptotics``, and on sparse
d = 2 at three exact rho of the figure grid, and asks perfbench's own
``check_output`` to accept each output.  The rho are passed as the exact
floats the benchmark draws: the 9-digit rho printed in the table gives a
different row.  It also parses every argv of the benchmark's task lists, so
that no change to the CLI's flags can break a benchmark run unnoticed.
perfbench/ is only read, never written.
"""

import csv
import importlib.util
import pathlib

import pytest

from spiked_tensor.cli import build_parser, main

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks = _load("checks")
workloads = _load("workloads")
REFERENCE = checks.load_reference()


def _orders(prior):
    orders = set()
    for name in (f"thresholds_{prior}.csv", f"replica_thresholds_{prior}.csv"):
        with open(checks.REFERENCE_DIR / name, newline="", encoding="utf-8") as fh:
            orders.update(int(row["d"]) for row in csv.DictReader(fh))
    return sorted(orders)


def _sparse_rhos():
    rhos = workloads.sparse_pca_rhos()
    return [rhos[0], min(rhos, key=lambda r: abs(r - 0.1445)), 2 / 3]


CASES = [
    ("thresholds", "--prior", prior, "--d", str(d), "--replica", "--asymptotics")
    for prior in ("spherical", "rademacher")
    for d in _orders(prior)
] + [("thresholds", "--prior", "sparse", "--rho", repr(rho), "--d", "2") for rho in _sparse_rhos()]


@pytest.mark.parametrize(
    "argv", CASES, ids=lambda argv: "-".join(a for a in argv[2:] if not a.startswith("--"))
)
def test_reference_row_reproduced(argv, capsys):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert checks.check_output(argv, code, out, REFERENCE) is None


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_benchmark_argv_parse(workload):
    # the task lists of seeds 1-5 at the default --seconds 20, and the thresholds probes
    rounds = workloads.rounds_for(workload, 20)
    argvs = [argv for seed in range(1, 6) for argv in workloads.make_tasks(workload, seed, rounds)]
    if workload == "thresholds":
        argvs += workloads.KNOWN_DEFECT_PROBE
    for argv in argvs:
        try:
            build_parser().parse_args(list(argv))
        except SystemExit:
            pytest.fail(f"the CLI rejects benchmark argv {argv}")
